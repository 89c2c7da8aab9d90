#include "rri/serve/manifest.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "codec.hpp"
#include "rri/obs/json.hpp"
#include "rri/rna/fasta.hpp"

namespace rri::serve {
namespace {

JobParams params_from_json(const obs::JsonValue& obj,
                           const JobParams& defaults, std::size_t line_no) {
  JobParams params = defaults;
  const obs::JsonValue* p = obj.find("params");
  if (p == nullptr) {
    return params;
  }
  if (!p->is(obs::JsonValue::Type::kObject)) {
    throw rna::ParseError("manifest line " + std::to_string(line_no) +
                          ": \"params\" must be an object");
  }
  for (const auto& [key, value] : p->as_object()) {
    try {
      if (key == "unit-weights") {
        params.unit_weights = value.as_bool();
      } else if (key == "min-hairpin") {
        params.min_hairpin = static_cast<int>(value.as_number());
      } else if (key == "no-reverse") {
        params.reverse = !value.as_bool();
      } else if (key == "algebra") {
        const auto algebra = semiring::parse_algebra(value.as_string());
        if (!algebra.has_value()) {
          throw rna::ParseError("manifest line " + std::to_string(line_no) +
                                ": unknown algebra \"" + value.as_string() +
                                "\" (known: tropical, logsumexp)");
        }
        params.algebra = *algebra;
      } else if (key == "temperature") {
        if (!(value.as_number() > 0.0)) {
          throw rna::ParseError("manifest line " + std::to_string(line_no) +
                                ": \"temperature\" must be a number > 0");
        }
        params.temperature = value.as_number();
      } else {
        throw rna::ParseError("manifest line " + std::to_string(line_no) +
                              ": unknown param \"" + key + "\"");
      }
    } catch (const obs::JsonError&) {
      throw rna::ParseError("manifest line " + std::to_string(line_no) +
                            ": bad value for param \"" + key + "\"");
    }
  }
  return params;
}

}  // namespace

std::vector<Job> load_manifest(std::istream& in, const JobParams& defaults) {
  std::vector<Job> jobs;
  std::set<std::string> seen_ids;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();  // tolerate CRLF manifests, like read_fasta
    }
    // Skip blank lines and '#' comments so manifests can be annotated.
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    obs::JsonValue doc;
    try {
      doc = obs::json_parse(line);
    } catch (const obs::JsonError& e) {
      throw rna::ParseError("manifest line " + std::to_string(line_no) +
                            ": " + e.what());
    }
    if (!doc.is(obs::JsonValue::Type::kObject)) {
      throw rna::ParseError("manifest line " + std::to_string(line_no) +
                            ": expected a JSON object");
    }
    Job job;
    const obs::JsonValue* id = doc.find("id");
    job.id = (id != nullptr) ? id->as_string()
                             : "job" + std::to_string(jobs.size() + 1);
    if (!seen_ids.insert(job.id).second) {
      throw rna::ParseError("manifest line " + std::to_string(line_no) +
                            ": duplicate id \"" + job.id + "\"");
    }
    const obs::JsonValue* s1 = doc.find("s1");
    const obs::JsonValue* s2 = doc.find("s2");
    if (s1 == nullptr || s2 == nullptr) {
      throw rna::ParseError("manifest line " + std::to_string(line_no) +
                            ": jobs need \"s1\" and \"s2\" sequences");
    }
    try {
      job.s1 = rna::Sequence::from_string(s1->as_string());
      job.s2 = rna::Sequence::from_string(s2->as_string());
    } catch (const rna::ParseError& e) {
      throw rna::ParseError("manifest line " + std::to_string(line_no) +
                            ": " + e.what());
    } catch (const obs::JsonError&) {
      throw rna::ParseError("manifest line " + std::to_string(line_no) +
                            ": \"s1\"/\"s2\" must be strings");
    }
    job.params = params_from_json(doc, defaults, line_no);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<Job> load_manifest_file(const std::string& path,
                                    const JobParams& defaults) {
  std::ifstream in(path);
  if (!in) {
    throw rna::ParseError("cannot open manifest: " + path);
  }
  return load_manifest(in, defaults);
}

std::vector<Job> jobs_from_fasta(const std::string& targets_path,
                                 const std::string& guides_path,
                                 const JobParams& defaults) {
  const auto targets = rna::read_fasta_file(targets_path);
  const auto guides = rna::read_fasta_file(guides_path);
  if (targets.empty()) {
    throw rna::ParseError("no records in " + targets_path);
  }
  if (guides.empty()) {
    throw rna::ParseError("no records in " + guides_path);
  }
  const auto record_name = [](const rna::FastaRecord& rec, std::size_t i) {
    // Use the first header token; fall back to the record number.
    const auto space = rec.name.find_first_of(" \t");
    std::string name = rec.name.substr(0, space);
    if (name.empty()) {
      char fallback[24];
      std::snprintf(fallback, sizeof(fallback), "r%zu", i + 1);
      name = fallback;
    }
    return name;
  };
  std::vector<Job> jobs;
  jobs.reserve(targets.size() * guides.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t g = 0; g < guides.size(); ++g) {
      Job job;
      job.id = record_name(targets[t], t) + ":" + record_name(guides[g], g);
      job.s1 = targets[t].sequence;
      job.s2 = guides[g].sequence;
      job.params = defaults;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

void write_result_line(std::ostream& out, const JobOutcome& outcome) {
  out << "{\"id\":\"" << obs::json_escape(outcome.id) << "\","
      << codec::result_fields(outcome) << "}\n";
}

void write_results(std::ostream& out,
                   const std::vector<JobOutcome>& outcomes) {
  for (const JobOutcome& o : outcomes) {
    write_result_line(out, o);
  }
}

}  // namespace rri::serve
