#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <cmath>

#include "alpha_bpmax_source.hpp"
#include "rri/alpha/codegen.hpp"
#include "rri/alpha/eval.hpp"
#include "rri/alpha/parser.hpp"
#include "rri/core/bpmax.hpp"
#include "rri/rna/random.hpp"

namespace {

using namespace rri;
using namespace rri::alpha;

bool host_compiler_available() {
  return std::system("c++ --version > /dev/null 2>&1") == 0;
}

/// Compile `source` (a complete TU with a main that prints doubles, one
/// per line) and return the printed values; empty on any failure.
std::vector<double> compile_and_run(const std::string& source,
                                    const std::string& stem) {
  const std::string dir = ::testing::TempDir();
  const std::string cpp = dir + "/" + stem + ".cpp";
  const std::string bin = dir + "/" + stem + ".bin";
  {
    std::ofstream out(cpp);
    out << source;
  }
  const std::string compile =
      "c++ -std=c++17 -O1 -o '" + bin + "' '" + cpp + "' 2> '" + cpp +
      ".err'";
  if (std::system(compile.c_str()) != 0) {
    std::ifstream err(cpp + ".err");
    std::ostringstream text;
    text << err.rdbuf();
    ADD_FAILURE() << "generated code failed to compile:\n" << text.str();
    return {};
  }
  FILE* pipe = popen(bin.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot run generated binary";
    return {};
  }
  std::vector<double> values;
  char line[128];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    values.push_back(std::strtod(line, nullptr));
  }
  pclose(pipe);
  return values;
}

/// Shared deterministic input function, expressed both as C++ source for
/// the generated program and as an InputProvider for the evaluator.
const char* kInputFnSource = R"(
static double input_fn(const char* var, const long long* idx, int arity) {
  double acc = var[0] * 1.0;
  for (int k = 0; k < arity; ++k) acc += (k + 1.0) * static_cast<double>(idx[k]);
  return acc;
}
)";

double input_fn_native(const std::string& var,
                       const std::vector<std::int64_t>& idx) {
  double acc = var[0] * 1.0;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    acc += (static_cast<double>(k) + 1.0) * static_cast<double>(idx[k]);
  }
  return acc;
}

struct CodegenCase {
  const char* name;
  const char* source;
  const char* output_var;
  int output_rank;  // 1 or 2
  std::map<std::string, std::int64_t> params;
};

// Without this, gtest names each case by a byte dump of the struct, whose
// leading pointer bytes change with every load address (ASLR), so the
// discovered ctest names would differ from one build to the next.
void PrintTo(const CodegenCase& tc, std::ostream* os) { *os << tc.name; }

class CodegenRoundTrip : public ::testing::TestWithParam<CodegenCase> {};

TEST_P(CodegenRoundTrip, GeneratedCodeMatchesEvaluator) {
  if (!host_compiler_available()) {
    GTEST_SKIP() << "no host compiler";
  }
  const auto& tc = GetParam();
  const Program program = parse(tc.source);
  const std::string generated = generate_cpp(program);

  // Evaluate natively.
  Evaluator ev(program, tc.params, input_fn_native);
  std::vector<double> expected;
  const std::int64_t extent = tc.params.begin()->second;  // all params equal
  if (tc.output_rank == 1) {
    for (std::int64_t i = 0; i < extent; ++i) {
      expected.push_back(ev.value(tc.output_var, {i}));
    }
  } else {
    for (std::int64_t i = 0; i < extent; ++i) {
      for (std::int64_t j = (tc.output_rank == 2 ? 0 : i); j < extent; ++j) {
        // For triangular outputs only i <= j is in-domain.
        if (std::string(tc.name) == "chainmax" && j < i) {
          continue;
        }
        expected.push_back(ev.value(tc.output_var, {i, j}));
      }
    }
  }

  // Build the driver around the generated TU.
  std::ostringstream driver;
  driver << generated << "\n#include <cstdio>\n" << kInputFnSource;
  driver << "int main() {\n  alpha_generated::Context ctx;\n";
  for (const auto& [param, value] : tc.params) {
    driver << "  ctx." << param << " = " << value << ";\n";
  }
  driver << "  ctx.input = &input_fn;\n  ctx.reduce_bound = " << extent + 2
         << ";\n";
  if (tc.output_rank == 1) {
    driver << "  for (long long i = 0; i < " << extent << "; ++i)\n"
           << "    std::printf(\"%.9g\\n\", alpha_generated::value_"
           << tc.output_var << "(ctx, i));\n";
  } else {
    driver << "  for (long long i = 0; i < " << extent << "; ++i)\n"
           << "    for (long long j = "
           << (std::string(tc.name) == "chainmax" ? "i" : "0") << "; j < "
           << extent << "; ++j)\n"
           << "      std::printf(\"%.9g\\n\", alpha_generated::value_"
           << tc.output_var << "(ctx, i, j));\n";
  }
  driver << "  return 0;\n}\n";

  const auto got = compile_and_run(driver.str(), tc.name);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_DOUBLE_EQ(got[k], expected[k]) << "cell " << k;
  }
}

const char* kMM = R"(
affine MM {N,K,M | (M,N,K) > 0}
input
  float A {i,j | 0<=i && i<M && 0<=j && j<K};
  float B {i,j | 0<=i && i<K && 0<=j && j<N};
output
  float C {i,j | 0<=i && i<M && 0<=j && j<N};
let
  C[i,j] = reduce(+, [k | 0<=k && k<K], A[i,k] * B[k,j]);
)";

const char* kPrefix = R"(
affine PS {N | N > 0}
input
  float a {i | 0<=i && i<N};
output
  float sum {i | 0<=i && i<N};
let
  sum[i] = reduce(+, [j | 0<=j && j<=i], a[j]);
)";

const char* kChainMax = R"(
affine CM {N | N > 1}
input
  float w {i | 0<=i && i<N};
output
  float S {i,j | 0<=i && i<=j && j<N};
let
  S[i,j] = max(w[i], reduce(max, [k | i<=k && k<j], S[i,k] + S[k+1,j]));
)";

INSTANTIATE_TEST_SUITE_P(
    Programs, CodegenRoundTrip,
    ::testing::Values(
        CodegenCase{"matmul", kMM, "C", 2, {{"M", 4}, {"N", 4}, {"K", 4}}},
        CodegenCase{"prefix", kPrefix, "sum", 1, {{"N", 6}}},
        CodegenCase{"chainmax", kChainMax, "S", 2, {{"N", 5}}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Codegen, GeneratedBpmaxMatchesOptimizedKernels) {
  // End to end: the full BPMax recurrence in the alphabets language,
  // through the code generator, through the host compiler — its answer
  // must equal the tuned C++ kernels'.
  if (!host_compiler_available()) {
    GTEST_SKIP() << "no host compiler";
  }
  const Program spec = parse(kBpmaxAlphaSource);
  const std::string generated = generate_cpp(spec);

  const int m = 4;
  const int n = 5;
  const auto s1 = rna::random_sequence(static_cast<std::size_t>(m), 21);
  const auto s2 = rna::random_sequence(static_cast<std::size_t>(n), 22);
  const auto model = rna::ScoringModel::bpmax_default();
  const rna::ScoreTables tables(s1, s2, model);

  // Embed the three score tables as literals in the driver.
  std::ostringstream driver;
  driver << generated << "\n#include <cstdio>\n#include <cstring>\n";
  driver << "#include <limits>\n";
  auto emit_table = [&](const char* name, int rows, int cols, auto get) {
    driver << "static const double " << name << "[" << rows << "][" << cols
           << "] = {\n";
    for (int r = 0; r < rows; ++r) {
      driver << "  {";
      for (int c = 0; c < cols; ++c) {
        const float v = get(r, c);
        if (std::isinf(v)) {
          driver << "-std::numeric_limits<double>::infinity(), ";
        } else {
          driver << v << ", ";
        }
      }
      driver << "},\n";
    }
    driver << "};\n";
  };
  emit_table("kScore1", m, m,
             [&](int r, int c) { return r < c ? tables.intra1(r, c) : 0.0f; });
  emit_table("kScore2", n, n,
             [&](int r, int c) { return r < c ? tables.intra2(r, c) : 0.0f; });
  emit_table("kIscore", m, n,
             [&](int r, int c) { return tables.inter(r, c); });
  driver << R"(
static double input_fn(const char* var, const long long* idx, int) {
  if (std::strcmp(var, "score1") == 0) return kScore1[idx[0]][idx[1]];
  if (std::strcmp(var, "score2") == 0) return kScore2[idx[0]][idx[1]];
  return kIscore[idx[0]][idx[1]];
}
int main() {
  alpha_generated::Context ctx;
)";
  driver << "  ctx.M = " << m << "; ctx.N = " << n << ";\n";
  driver << "  ctx.input = &input_fn; ctx.reduce_bound = " << n + 2 << ";\n";
  driver << "  std::printf(\"%.9g\\n\", alpha_generated::value_F(ctx, 0, "
         << m - 1 << ", 0, " << n - 1 << "));\n  return 0;\n}\n";

  const auto got = compile_and_run(driver.str(), "bpmax_generated");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0],
            static_cast<double>(core::bpmax_score(s1, s2, model)));
}

TEST(Codegen, EmitsExpectedStructure) {
  const Program p = parse(kPrefix);
  const std::string code = generate_cpp(p);
  EXPECT_NE(code.find("struct Context"), std::string::npos);
  EXPECT_NE(code.find("double value_sum(Context& ctx, long long i)"),
            std::string::npos);
  EXPECT_NE(code.find("memo_sum"), std::string::npos);
  EXPECT_NE(code.find("ctx.input(\"a\""), std::string::npos);
  EXPECT_NE(code.find("namespace alpha_generated"), std::string::npos);
}

TEST(Codegen, CustomNamespace) {
  const Program p = parse(kPrefix);
  CodegenOptions opt;
  opt.namespace_name = "my_ns";
  EXPECT_NE(generate_cpp(p, opt).find("namespace my_ns"), std::string::npos);
}

}  // namespace
