#ifndef EDDE_BENCH_E2E_CHECKS_H_
#define EDDE_BENCH_E2E_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace edde {
namespace e2e {

/// Outcome of one correctness check: `ok` plus, when it failed, what broke.
struct CheckResult {
  bool ok = true;
  std::string message;

  void Fail(const std::string& why) {
    if (ok) message = why;
    ok = false;
  }
};

/// Largest deviation of a probability row sum from 1 that float32
/// softmax and the float32 Eq. 16 accumulation can produce on the class
/// counts used here.
inline constexpr double kRowSumTolerance = 1e-4;

/// Smallest top-two margin of the float64 Eq. 16 score at which the
/// float32 reference path cannot order the two classes differently.
inline constexpr double kTieMargin = 1e-5;

/// Every α_t is finite and inside [kAlphaMin, kAlphaMax], and there is one
/// per member.
CheckResult CheckAlphas(const std::vector<double>& alphas,
                        int64_t num_members);

/// Every row of `probs` (N, K) is finite, non-negative and sums to 1.
CheckResult CheckProbRows(const Tensor& probs, const std::string& what);

/// The benchmark's own Eq. 16: float64 Σ_t α_t·p_t / Σ_t α_t over the
/// members' softmax outputs, its argmax per row, and whether that row's
/// top-two margin is wide enough to be authoritative (see kTieMargin).
struct Eq16Reference {
  std::vector<int> labels;
  std::vector<bool> decisive;
};
Eq16Reference RecomputeEq16(const std::vector<Tensor>& member_probs,
                            const std::vector<double>& alphas);

/// The program's ensemble prediction against the benchmark's own Eq. 16:
/// every member and ensemble probability row sums to 1, and the program's
/// label equals the recomputed argmax on every decisive row. On success
/// `*accuracy` is the accuracy of the recomputed labels against
/// `true_labels`.
CheckResult CheckEnsemblePrediction(const std::vector<Tensor>& member_probs,
                                    const std::vector<double>& alphas,
                                    const Tensor& ensemble_probs,
                                    const std::vector<int>& program_labels,
                                    const std::vector<int>& true_labels,
                                    double* accuracy);

/// The labels a correct server must return for each row: the recomputed
/// Eq. 16 argmax where it is decisive, else the program's own offline
/// label (the cascade replays the reference float32 arithmetic on ties).
std::vector<int> ReferenceLabels(const Eq16Reference& eq16,
                                 const std::vector<int>& program_labels);

/// Work done by one EDDE training: `trainer.samples` must advance by
/// (first-member epochs + (T−1 + retrains) × later-member epochs) ×
/// training-set size — every retrain attempt reruns a later member's
/// budget.
CheckResult CheckSamplesTrained(int64_t samples, int first_epochs,
                                int rest_epochs, int64_t num_members,
                                int64_t retrains, int64_t train_size);

/// One served response for the test-set rows `rows`: it succeeded, echoes
/// the request id, answers every row, each label equals the reference
/// label of its row and each cascade depth lies in [1, T].
CheckResult CheckServedResponse(int64_t request_id,
                                const std::vector<int64_t>& rows,
                                const serve::PredictResponse& response,
                                const std::vector<int>& reference_labels,
                                int64_t num_members);

}  // namespace e2e
}  // namespace edde

#endif  // EDDE_BENCH_E2E_CHECKS_H_
