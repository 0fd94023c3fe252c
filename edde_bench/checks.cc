#include "checks.h"

#include <algorithm>
#include <cmath>

#include "core/edde.h"

namespace edde {
namespace e2e {

CheckResult CheckAlphas(const std::vector<double>& alphas,
                        int64_t num_members) {
  CheckResult r;
  if (static_cast<int64_t>(alphas.size()) != num_members) {
    r.Fail("ensemble has " + std::to_string(alphas.size()) +
           " alphas, expected " + std::to_string(num_members));
  }
  for (size_t t = 0; t < alphas.size(); ++t) {
    const double a = alphas[t];
    if (!std::isfinite(a) || a < kAlphaMin || a > kAlphaMax) {
      r.Fail("alpha[" + std::to_string(t) + "] = " + std::to_string(a) +
             " outside [kAlphaMin, kAlphaMax]");
    }
  }
  return r;
}

CheckResult CheckProbRows(const Tensor& probs, const std::string& what) {
  CheckResult r;
  if (probs.shape().rank() != 2) {
    r.Fail(what + ": probabilities are not a (rows, classes) matrix");
    return r;
  }
  const int64_t n = probs.shape().dim(0);
  const int64_t k = probs.shape().dim(1);
  for (int64_t i = 0; i < n && r.ok; ++i) {
    double sum = 0.0;
    for (int64_t c = 0; c < k; ++c) {
      const double p = probs.data()[i * k + c];
      if (!std::isfinite(p) || p < 0.0) {
        r.Fail(what + ": row " + std::to_string(i) +
               " has a negative or non-finite probability");
      }
      sum += p;
    }
    if (std::fabs(sum - 1.0) > kRowSumTolerance) {
      r.Fail(what + ": row " + std::to_string(i) + " sums to " +
             std::to_string(sum));
    }
  }
  return r;
}

Eq16Reference RecomputeEq16(const std::vector<Tensor>& member_probs,
                            const std::vector<double>& alphas) {
  Eq16Reference ref;
  if (member_probs.empty()) return ref;
  const int64_t n = member_probs[0].shape().dim(0);
  const int64_t k = member_probs[0].shape().dim(1);
  double alpha_sum = 0.0;
  for (double a : alphas) alpha_sum += a;
  std::vector<double> score(static_cast<size_t>(k));
  ref.labels.resize(static_cast<size_t>(n));
  ref.decisive.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::fill(score.begin(), score.end(), 0.0);
    for (size_t t = 0; t < member_probs.size(); ++t) {
      const float* p = member_probs[t].data() + i * k;
      for (int64_t c = 0; c < k; ++c) score[static_cast<size_t>(c)] += alphas[t] * p[c];
    }
    int best = 0;
    for (int64_t c = 1; c < k; ++c) {
      if (score[static_cast<size_t>(c)] > score[static_cast<size_t>(best)]) {
        best = static_cast<int>(c);
      }
    }
    double runner_up = -1.0;
    for (int64_t c = 0; c < k; ++c) {
      if (c != best) runner_up = std::max(runner_up, score[static_cast<size_t>(c)]);
    }
    ref.labels[static_cast<size_t>(i)] = best;
    ref.decisive[static_cast<size_t>(i)] =
        (score[static_cast<size_t>(best)] - runner_up) / alpha_sum > kTieMargin;
  }
  return ref;
}

CheckResult CheckEnsemblePrediction(const std::vector<Tensor>& member_probs,
                                    const std::vector<double>& alphas,
                                    const Tensor& ensemble_probs,
                                    const std::vector<int>& program_labels,
                                    const std::vector<int>& true_labels,
                                    double* accuracy) {
  CheckResult r;
  if (member_probs.size() != alphas.size()) {
    r.Fail("member probability count differs from alpha count");
    return r;
  }
  for (size_t t = 0; t < member_probs.size(); ++t) {
    const CheckResult m =
        CheckProbRows(member_probs[t], "member " + std::to_string(t));
    if (!m.ok) r.Fail(m.message);
  }
  const CheckResult e = CheckProbRows(ensemble_probs, "ensemble");
  if (!e.ok) r.Fail(e.message);
  if (!r.ok) return r;
  const Eq16Reference ref = RecomputeEq16(member_probs, alphas);
  if (program_labels.size() != ref.labels.size() ||
      true_labels.size() != ref.labels.size()) {
    r.Fail("label vectors do not cover the evaluated rows");
    return r;
  }
  int64_t correct = 0;
  for (size_t i = 0; i < ref.labels.size(); ++i) {
    if (ref.decisive[i] && ref.labels[i] != program_labels[i]) {
      r.Fail("row " + std::to_string(i) + ": program label " +
             std::to_string(program_labels[i]) + " != recomputed Eq. 16 label " +
             std::to_string(ref.labels[i]));
    }
    if (ref.labels[i] == true_labels[i]) ++correct;
  }
  if (accuracy != nullptr && !ref.labels.empty()) {
    *accuracy = static_cast<double>(correct) /
                static_cast<double>(ref.labels.size());
  }
  return r;
}

std::vector<int> ReferenceLabels(const Eq16Reference& eq16,
                                 const std::vector<int>& program_labels) {
  std::vector<int> labels = eq16.labels;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (!eq16.decisive[i]) labels[i] = program_labels[i];
  }
  return labels;
}

CheckResult CheckSamplesTrained(int64_t samples, int first_epochs,
                                int rest_epochs, int64_t num_members,
                                int64_t retrains, int64_t train_size) {
  CheckResult r;
  const int64_t expected =
      (first_epochs + (num_members - 1 + retrains) * rest_epochs) * train_size;
  if (samples != expected) {
    r.Fail("trainer.samples advanced by " + std::to_string(samples) +
           ", the budget implies " + std::to_string(expected));
  }
  return r;
}

CheckResult CheckServedResponse(int64_t request_id,
                                const std::vector<int64_t>& rows,
                                const serve::PredictResponse& response,
                                const std::vector<int>& reference_labels,
                                int64_t num_members) {
  CheckResult r;
  const std::string where = "request " + std::to_string(request_id) + ": ";
  if (!response.ok) {
    r.Fail(where + "failed: " + response.error);
    return r;
  }
  if (response.id != request_id) {
    r.Fail(where + "response id " + std::to_string(response.id));
  }
  if (response.labels.size() != rows.size() ||
      response.depth.size() != rows.size()) {
    r.Fail(where + "answered " + std::to_string(response.labels.size()) +
           " of " + std::to_string(rows.size()) + " rows");
    return r;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const int expected = reference_labels[static_cast<size_t>(rows[i])];
    if (response.labels[i] != expected) {
      r.Fail(where + "test row " + std::to_string(rows[i]) + " served label " +
             std::to_string(response.labels[i]) + " != reference " +
             std::to_string(expected));
    }
    if (response.depth[i] < 1 || response.depth[i] > num_members) {
      r.Fail(where + "cascade depth " + std::to_string(response.depth[i]) +
             " outside [1, " + std::to_string(num_members) + "]");
    }
  }
  return r;
}

}  // namespace e2e
}  // namespace edde
