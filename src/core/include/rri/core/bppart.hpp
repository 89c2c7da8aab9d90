#ifndef RRI_CORE_BPPART_HPP
#define RRI_CORE_BPPART_HPP

/// \file bppart.hpp
/// BPPart: the interaction partition function and base-pair pairing
/// probabilities of two RNA strands, computed by running the BPMax
/// kernel shapes under the log-sum-exp algebra (BPPart, Ebrahimpour-
/// Boroojeny et al. 2019; pairing probabilities from inside quantities
/// per Huang/Qin/Reidys 2009). Θ(M³N³) time, Θ(M²N²) doubles of space —
/// the same cost model as BPMax with double-width tables.
///
/// ## Structure space
///
/// BPPart sums Boltzmann weights exp(score(S)/T) over *planar* joint
/// structures: the BPMax structure space (intra pairs non-crossing
/// within each strand, intermolecular pairs order-preserving, all
/// positions pair at most once) with one additional constraint — no
/// intramolecular arc may enclose an inter-paired position of its
/// strand. That is exactly "no crossings in the two-line interaction
/// diagram". It is a strict subset of the relaxed space BPMax maximizes
/// over (BPMax admits an intra arc spanning an inter pair), which is
/// what makes an *unambiguous* grammar — and therefore a meaningful sum
/// over structures rather than over derivations — possible.
///
/// ## Recurrence (unambiguous, conditioned on the last inter pair)
///
///   Z(i1,j1,i2,j2) = Zn1(i1,j1) x Zn2(i2,j2)                 [no inter]
///     + sum_{a in [i1,j1], b in [i2,j2]}
///         w(a,b) x Z(i1,a-1,i2,b-1) x Zn1(a+1,j1) x Zn2(b+1,j2)
///
/// where Zn1/Zn2 are single-strand Nussinov partition functions, w(a,b)
/// = exp(iscore(a,b)/T), and Z with an empty strand interval degrades to
/// the other strand's Zn (1 when both are empty). Every structure has a
/// unique last (rightmost) inter pair (a,b), so each is counted exactly
/// once. In the log domain the inner sum over b is precisely the
/// dispatched lse_maxplus kernel contract: the b < j2 terms are the R0
/// reduction against the Zn2 table, and the b == j2 term rides the dense
/// wedge with r3add = one, r4add = zero (src/bppart.cpp). The dependence
/// set (prefix triangles (i1, a-1) only) is a subset of BPMax's, so the
/// machine-checked BPMax wavefront schedules remain legal here.
///
/// Because log-add-exp does not reassociate exactly, all schedules below
/// fix one per-cell reduction order (split a ascending; within a split
/// the b == j2 term first, then b ascending; the no-inter term last), so
/// every BppartVariant produces bit-identical tables.

#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/ftable.hpp"
#include "rri/rna/scoring.hpp"
#include "rri/rna/sequence.hpp"

namespace rri::core {

/// Log-domain single-strand partition table: PartTable(i,j) is the log
/// of the sum of exp(score/T) over all non-crossing intramolecular
/// structures of [i, j]. The log-sum-exp analogue of STable, computed by
/// the standard unambiguous Nussinov counting recurrence (condition on
/// whether j pairs, and to whom). Stored as a dense L×L square so
/// kernels can stream rows with unit stride; entries below the diagonal
/// are 0 = log 1, the empty-interval convention at() also implements.
class PartTable {
 public:
  PartTable() = default;
  PartTable(const rna::Sequence& seq, const rna::ScoringModel& model,
            double temperature);

  int size() const noexcept { return l_; }

  /// log Zn(i,j); empty intervals (j < i) give log 1 = 0.
  double at(int i, int j) const noexcept {
    if (j < i) {
      return 0.0;
    }
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(l_) +
                 static_cast<std::size_t>(j)];
  }

  /// Dense L×L row-major storage (the kernels' B operand).
  const double* data() const noexcept { return data_.data(); }

 private:
  int l_ = 0;
  std::vector<double> data_;
};

/// Presets of the shared band driver (detail::run_band) for the inside
/// fill: diagonal scope, row-block items that sweep every split a, then
/// the no-inter term over the diagonal. All variants are bit-identical
/// (the per-cell reduction order is fixed; threads only move who computes
/// a row block, never the order of its updates).
enum class BppartVariant {
  kSerial,       ///< the same driver on one thread, whatever num_threads
  kRowParallel,  ///< row blocks on num_threads, row-streamed kernels
  kTiled,        ///< row blocks on num_threads, TileShape3-tiled kernels
};

const char* bppart_variant_name(BppartVariant v) noexcept;
const std::vector<BppartVariant>& all_bppart_variants();

struct BppartOptions {
  /// Boltzmann temperature: structures weigh exp(score/T). Must be > 0.
  double temperature = 1.0;
  BppartVariant variant = BppartVariant::kRowParallel;
  /// Its ti2 is every variant's row-block height; kTiled also tiles its
  /// kernel with it.
  TileShape3 tile{};
  /// OpenMP thread count for kRowParallel and kTiled; 0 keeps the
  /// runtime's current setting.
  int num_threads = 0;
};

/// Everything the outside pass needs. The inside Z-table doubles as the
/// outside table: the suffix partition after pair (a,b) is itself the
/// inside value Z(a+1, M-1, b+1, N-1), so pairing probabilities are O(1)
/// lookups per pair (bppart_pair_probabilities).
struct BppartResult {
  double log_z = 0.0;  ///< log Z(0, M-1, 0, N-1)
  double temperature = 1.0;
  PartTable zn1, zn2;
  ZTable z;
  /// Scaled log inter-pair weights iscore(a,b)/T, M×N row-major; -inf
  /// for forbidden pairs.
  std::vector<double> inter_w;
};

/// Solve BPPart for (strand1, strand2). Same orientation convention as
/// bpmax_solve: intermolecular pairs are parallel, callers holding both
/// strands 5'->3' should pass strand2.reversed().
BppartResult bppart_solve(const rna::Sequence& strand1,
                          const rna::Sequence& strand2,
                          const rna::ScoringModel& model,
                          const BppartOptions& options = {});

/// log-partition-only convenience wrapper.
double bppart_log_z(const rna::Sequence& strand1,
                    const rna::Sequence& strand2,
                    const rna::ScoringModel& model,
                    const BppartOptions& options = {});

/// The outside pass: P[(a,b) paired] for every intermolecular pair, M×N
/// row-major. P(a,b) = exp(Z(0,a-1,0,b-1) + w(a,b) + Z(a+1,M-1,b+1,N-1)
/// - log Z); forbidden pairs get exactly 0, everything else lands in
/// [0, 1] (clamped against <= 1 ulp of excursion from the log-domain
/// round trip) and marginals sum to at most 1 per position.
std::vector<double> bppart_pair_probabilities(const BppartResult& result);

}  // namespace rri::core

#endif  // RRI_CORE_BPPART_HPP
