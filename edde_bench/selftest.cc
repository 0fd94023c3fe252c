// Self-test of the benchmark's correctness checks (checks.h): each check
// must pass on the library's real output and fail once that output is
// corrupted in the way the check exists to catch. Exit code 0 = all good.
//
//   .bench_build/edde_bench_selftest

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "data/dataset.h"
#include "ensemble/ensemble_model.h"
#include "nn/mlp.h"
#include "tensor/rng.h"

namespace edde {
namespace e2e {
namespace {

int failures = 0;

void Expect(bool want_ok, const CheckResult& r, const std::string& what) {
  const bool good = r.ok == want_ok;
  std::printf("%-4s %-52s %s\n", good ? "ok" : "FAIL", what.c_str(),
              r.ok ? "(check passed)" : ("(check failed: " + r.message + ")").c_str());
  if (!good) ++failures;
}

void Run() {
  // A small real ensemble: three MLP members with distinct α.
  constexpr int64_t kRows = 64, kDim = 8, kClasses = 4;
  Rng rng(5);
  Tensor x(Shape{kRows, kDim});
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  std::vector<int> y(static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) y[static_cast<size_t>(i)] = static_cast<int>(i % kClasses);
  const Dataset data("selftest", x, y, kClasses);
  EnsembleModel model;
  const double alphas[] = {0.9, 0.6, 0.3};
  for (int t = 0; t < 3; ++t) {
    MlpConfig cfg;
    cfg.in_features = kDim;
    cfg.hidden = {16};
    cfg.num_classes = kClasses;
    model.AddMember(std::make_unique<Mlp>(cfg, 100 + t), alphas[t]);
  }
  const std::vector<Tensor> member_probs = model.MemberProbs(data);
  const Tensor ensemble_probs = model.PredictProbs(data);
  const std::vector<int> labels = model.PredictLabels(data);
  double acc = 0.0;

  Expect(true, CheckAlphas(model.alphas(), 3), "alphas of the real ensemble");
  Expect(true,
         CheckEnsemblePrediction(member_probs, model.alphas(), ensemble_probs,
                                 labels, y, &acc),
         "Eq. 16 recomputation on the real ensemble");

  // One α scaled: out of [kAlphaMin, kAlphaMax], and Eq. 16 moves with it.
  std::vector<double> scaled = model.alphas();
  scaled[1] *= 1000.0;
  Expect(false, CheckAlphas(scaled, 3), "alpha scaled x1000");
  Expect(false,
         CheckEnsemblePrediction(member_probs, scaled, ensemble_probs, labels,
                                 y, &acc),
         "Eq. 16 with alpha scaled x1000");

  // A probability row that does not sum to 1.
  Tensor bad_member = member_probs[0].Clone();
  bad_member.data()[3 * kClasses] += 0.01f;
  std::vector<Tensor> bad_members = member_probs;
  bad_members[0] = bad_member;
  Expect(false,
         CheckEnsemblePrediction(bad_members, model.alphas(), ensemble_probs,
                                 labels, y, &acc),
         "member probability row summing to 1.01");
  Tensor bad_ensemble = ensemble_probs.Clone();
  bad_ensemble.data()[7 * kClasses + 1] *= 0.5f;
  Expect(false,
         CheckEnsemblePrediction(member_probs, model.alphas(), bad_ensemble,
                                 labels, y, &acc),
         "ensemble probability row not summing to 1");

  // Work done: the count a training must reach, and one batch short of it.
  constexpr int64_t kTrain = 1280, kBatch = 16;
  const int64_t full = (21 + 3 * 9) * kTrain;
  Expect(true, CheckSamplesTrained(full, 21, 9, 4, 0, kTrain),
         "trainer.samples at the budget");
  Expect(false, CheckSamplesTrained(full - kBatch, 21, 9, 4, 0, kTrain),
         "trainer.samples one batch short");
  Expect(true, CheckSamplesTrained(full + 9 * kTrain, 21, 9, 4, 1, kTrain),
         "trainer.samples with one retrained member");

  // Serving: a faithful response, then one with a label flipped.
  const std::vector<int> reference =
      ReferenceLabels(RecomputeEq16(member_probs, model.alphas()), labels);
  const std::vector<int64_t> rows = {5, 9, 12, 40};
  serve::PredictResponse resp;
  resp.id = 7;
  resp.ok = true;
  for (const int64_t r : rows) {
    resp.labels.push_back(reference[static_cast<size_t>(r)]);
    resp.depth.push_back(2);
  }
  Expect(true, CheckServedResponse(7, rows, resp, reference, 3),
         "served response equal to the reference");
  serve::PredictResponse flipped = resp;
  flipped.labels[2] = (flipped.labels[2] + 1) % kClasses;
  Expect(false, CheckServedResponse(7, rows, flipped, reference, 3),
         "one served label flipped");
  serve::PredictResponse deep = resp;
  deep.depth[0] = 4;
  Expect(false, CheckServedResponse(7, rows, deep, reference, 3),
         "cascade depth beyond T");
  serve::PredictResponse short_resp = resp;
  short_resp.labels.pop_back();
  short_resp.depth.pop_back();
  Expect(false, CheckServedResponse(7, rows, short_resp, reference, 3),
         "one served row missing");
  serve::PredictResponse failed = resp;
  failed.ok = false;
  failed.error = "unavailable";
  Expect(false, CheckServedResponse(7, rows, failed, reference, 3),
         "request answered with an error");
}

}  // namespace
}  // namespace e2e
}  // namespace edde

int main() {
  edde::e2e::Run();
  std::printf("%s\n", edde::e2e::failures == 0 ? "selftest: all checks behave"
                                               : "selftest: FAILED");
  return edde::e2e::failures == 0 ? 0 : 1;
}
