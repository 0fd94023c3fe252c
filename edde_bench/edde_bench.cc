// The repository's end-to-end benchmark: EDDE (paper Algorithm 1) training
// on ResNet and TextCNN, and serving of the trained ensembles over the
// in-process InferenceServer. See README.md for the workloads, metrics and
// how to run it; run.py builds this binary and forwards its output.
//
//   edde_bench --workload=train_resnet --seed=1 --seconds=45 --trace=0
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1).

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "checks.h"
#include "core/edde.h"
#include "core/knowledge_transfer.h"
#include "ensemble/ensemble_model.h"
#include "ensemble/trainer.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/resnet.h"
#include "optim/sgd.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "utils/flags.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/socket.h"
#include "utils/threadpool.h"
#include "utils/trace.h"

namespace edde {
namespace e2e {
namespace {

using bench::Arch;
using bench::Budget;
using bench::Scale;
using Clock = std::chrono::steady_clock;

// Fixed resources: never auto-detected, so a run means the same thing on
// any host with at least four cores.
constexpr int kPoolThreads = 4;
// Every round trains an ensemble and then serves it for this long.
constexpr double kTrainWorkloadServeSeconds = 1.5;
constexpr double kServeWorkloadServeSeconds = 6.0;
// A round is set aside when the hypervisor ran other guests on this VM's
// CPUs for more than this share of their time during it (the steal column
// of /proc/stat): such a round measured the host, not the program. Quiet
// rounds see about 0.5%; during the host's busy spells a whole training
// took up to 10x as long.
constexpr double kMaxStealShare = 0.02;
// How long a run may go on past --seconds to replace set-aside rounds.
constexpr double kStealGraceSeconds = 20.0;
// Request sizes in rows and their relative frequencies: mostly small
// interactive requests, with a tail of batched ones.
constexpr int64_t kRequestRows[] = {1, 2, 4, 8, 16, 32};
constexpr double kRequestWeights[] = {0.2, 0.2, 0.2, 0.15, 0.15, 0.1};
// Both workloads train (and serve) the ensemble of this data and training
// seed whatever --seed is; --seed draws the traffic. From seed to seed the
// trained α moves the cascade's depth in steps (the TextCNN ensemble needs
// ~2.3 or ~3.05 members per row, about half the seeds each) and the tiny
// ResNet's test accuracy by ±6%, which would hide a change's effect.
constexpr uint64_t kModelSeed = 1;

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(q * v.size())) - 1);
  return v[i];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time the hypervisor gave to other guests, summed over this VM's
/// CPUs (the steal column of /proc/stat), in seconds; 0 where the kernel
/// does not report it.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

template <typename F>
double MedianSeconds(int reps, F&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Timer timer;
    fn();
    samples.push_back(timer.Seconds());
  }
  return Median(samples);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  Arch arch = Arch::kResNet;
  // Serving is the headline: long serving per round, and test_acc comes
  // from the served labels.
  bool serve_measured = false;
  TrainTestSplit data;
  ModelFactory factory;
  Budget budget;
  EddeOptions options;
  double generate_seconds = 0.0;
  // Serving time after each training: short on train_resnet, where
  // training is what is measured, long on serve_textcnn.
  double serve_seconds_per_round = 0.0;

  std::unique_ptr<EnsembleMethod> MakeMethod() const {
    return bench::MakeEdde(budget, arch, options);
  }
};

bool IsWorkload(const std::string& name) {
  return name == "train_resnet" || name == "serve_textcnn";
}

// train_resnet is the paper's Table II configuration at --scale=tiny.
// serve_textcnn uses --scale=small: at tiny a whole EDDE training takes
// ~0.4 s on one core, too short to time steadily; small trains the same
// family on 4x the reviews at twice the length for ~6 s.
Workload MakeWorkload(const std::string& name) {
  Workload w;
  const Timer gen;
  if (name == "train_resnet") {
    w.arch = Arch::kResNet;
    bench::CvWorkload cv = bench::MakeC10Like(Scale::kTiny, kModelSeed);
    w.generate_seconds = gen.Seconds();
    w.data = std::move(cv.data);
    w.factory = bench::MakeResNetFactory(Scale::kTiny, cv.num_classes);
    w.budget = bench::MakeCvBudget(Scale::kTiny, kModelSeed);
    w.serve_seconds_per_round = kTrainWorkloadServeSeconds;
  } else {
    w.arch = Arch::kTextCnn;
    w.serve_measured = true;
    bench::NlpWorkload nlp = bench::MakeImdbLike(Scale::kSmall, kModelSeed);
    w.generate_seconds = gen.Seconds();
    w.data = std::move(nlp.data);
    w.factory = bench::MakeTextCnnFactory(Scale::kSmall, nlp.config);
    w.budget = bench::MakeNlpBudget(Scale::kSmall, kModelSeed);
    w.serve_seconds_per_round = kServeWorkloadServeSeconds;
  }
  w.options = bench::PaperEddeOptions(w.arch, w.budget);
  return w;
}

// ---------------------------------------------------------------------------
// Serving

/// Presents a member that takes (N, ...) sample tensors to the server,
/// which gathers requests into flat (rows, dim) batches: Forward restores
/// the sample shape (a view, no copy). Inference only.
class FlatRowsAdapter : public Module {
 public:
  FlatRowsAdapter(Module* inner, std::vector<int64_t> sample_dims)
      : inner_(inner), sample_dims_(std::move(sample_dims)) {}

  Tensor Forward(const Tensor& input, bool training) override {
    std::vector<int64_t> dims = {input.shape().dim(0)};
    dims.insert(dims.end(), sample_dims_.begin(), sample_dims_.end());
    return inner_->Forward(input.Reshape(Shape(dims)), training);
  }
  Tensor Backward(const Tensor& /*grad_output*/) override {
    EDDE_LOG(FATAL) << "FlatRowsAdapter is inference-only";
    return Tensor();
  }
  void CollectParameters(std::vector<Parameter*>* out) override {
    inner_->CollectParameters(out);
  }
  std::string name() const override { return "flat_rows(" + inner_->name() + ")"; }

 private:
  Module* inner_;
  std::vector<int64_t> sample_dims_;
};

EnsembleModel MakeServedEnsemble(const EnsembleModel& trained,
                                 const Dataset& test) {
  EnsembleModel served;
  for (int64_t t = 0; t < trained.size(); ++t) {
    served.AddMember(
        std::make_unique<FlatRowsAdapter>(trained.member(t), test.SampleDims()),
        trained.alpha(t));
  }
  return served;
}

struct Request {
  serve::PredictRequest wire;
  std::vector<int64_t> rows;  // test-set rows, in feature order
};

/// One round of requests: every test row exactly once. The multiset of
/// request sizes is fixed by the test-set size (counts in proportion to
/// kRequestWeights, the remainder filled greedily from the largest size);
/// the seed shuffles which rows go together and the order of requests.
/// Fixing the multiset keeps the per-request overhead of a round the same
/// for every seed.
std::vector<Request> MakeRequests(const Dataset& test, uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5e7e);
  auto shuffle = [&rng](auto* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.NextU64() % i]);
    }
  };
  const int64_t n = test.size();
  double mean_rows = 0.0;
  for (size_t i = 0; i < std::size(kRequestRows); ++i) {
    mean_rows += kRequestWeights[i] * static_cast<double>(kRequestRows[i]);
  }
  const double num_requests = std::floor(static_cast<double>(n) / mean_rows);
  std::vector<int64_t> sizes;
  int64_t left = n;
  for (size_t i = 0; i < std::size(kRequestRows); ++i) {
    const int64_t count =
        static_cast<int64_t>(std::floor(kRequestWeights[i] * num_requests));
    sizes.insert(sizes.end(), static_cast<size_t>(count), kRequestRows[i]);
    left -= count * kRequestRows[i];
  }
  for (size_t i = std::size(kRequestRows); i-- > 0;) {
    for (; left >= kRequestRows[i]; left -= kRequestRows[i]) {
      sizes.push_back(kRequestRows[i]);
    }
  }
  shuffle(&sizes);
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  shuffle(&perm);

  const int64_t dim = test.sample_elements();
  std::vector<Request> requests;
  int64_t pos = 0;
  for (const int64_t rows : sizes) {
    Request r;
    r.rows.assign(perm.begin() + pos, perm.begin() + pos + rows);
    r.wire.id = static_cast<int64_t>(requests.size());
    r.wire.rows = rows;
    r.wire.dim = dim;
    r.wire.features.resize(static_cast<size_t>(rows * dim));
    for (int64_t i = 0; i < rows; ++i) {
      std::copy_n(test.features().data() + r.rows[static_cast<size_t>(i)] * dim,
                  dim, r.wire.features.data() + i * dim);
    }
    requests.push_back(std::move(r));
    pos += rows;
  }
  return requests;
}

/// The server-side sums the per-layer table reads; Add/Sub accumulate
/// deltas over serving segments.
struct ServeCounters {
  double queue_wait_sum = 0, queue_wait_count = 0;
  double batch_rows_sum = 0, batch_rows_count = 0;
  double batch_sum = 0, batch_count = 0;
  double member_row_evals = 0, rows = 0;

  static ServeCounters Read() {
    MetricsRegistry& m = MetricsRegistry::Global();
    ServeCounters c;
    const Histogram* qw = m.GetHistogram("time/serve/queue_wait");
    const Histogram* br = m.GetHistogram("serve.batch_rows");
    const Histogram* bt = m.GetHistogram("time/serve/batch");
    c.queue_wait_sum = qw->Sum();
    c.queue_wait_count = static_cast<double>(qw->Count());
    c.batch_rows_sum = br->Sum();
    c.batch_rows_count = static_cast<double>(br->Count());
    c.batch_sum = bt->Sum();
    c.batch_count = static_cast<double>(bt->Count());
    c.member_row_evals =
        static_cast<double>(m.GetCounter("serve.member_row_evals")->Value());
    c.rows = static_cast<double>(m.GetCounter("serve.rows")->Value());
    return c;
  }

  void Add(const ServeCounters& b) { AddDelta(ServeCounters{}, b); }

  void AddDelta(const ServeCounters& a, const ServeCounters& b) {
    queue_wait_sum += b.queue_wait_sum - a.queue_wait_sum;
    queue_wait_count += b.queue_wait_count - a.queue_wait_count;
    batch_rows_sum += b.batch_rows_sum - a.batch_rows_sum;
    batch_rows_count += b.batch_rows_count - a.batch_rows_count;
    batch_sum += b.batch_sum - a.batch_sum;
    batch_count += b.batch_count - a.batch_count;
    member_row_evals += b.member_row_evals - a.member_row_evals;
    rows += b.rows - a.rows;
  }
};

/// What a stretch of rounds measured.
struct Phase {
  std::vector<double> train_seconds;  // wall time of each Train call
  int64_t retrains = 0;               // edde.diverged_member_retrains
  double serve_seconds = 0.0;         // wall time of the serving segments
  int64_t rows_answered = 0;          // rows of the checked responses
  std::vector<double> latency_ms;     // each request, timed by its client
  int64_t requests = 0, failed = 0;
  ServeCounters served;

  double RowsPerSecond() const {
    return static_cast<double>(rows_answered) / serve_seconds;
  }

  void Add(const Phase& o) {
    train_seconds.insert(train_seconds.end(), o.train_seconds.begin(),
                         o.train_seconds.end());
    retrains += o.retrains;
    serve_seconds += o.serve_seconds;
    rows_answered += o.rows_answered;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    requests += o.requests;
    failed += o.failed;
    served.Add(o.served);
  }
};

/// A run's rounds: every one, for the operation counts and checks, and the
/// ones the metrics come from.
struct Measured {
  Phase all;
  Phase kept;
  int set_aside = 0;  // rounds left out of `kept` for host steal
};

/// An InferenceServer on loopback serving one ensemble, plus the one
/// closed-loop client connection that drives it. The client connects at
/// construction, so Run measures requests only.
class ServeSession {
 public:
  ServeSession(const EnsembleModel* served, const Dataset& test,
               const std::vector<Request>* requests,
               const std::vector<int>* reference_labels)
      : requests_(requests),
        reference_labels_(reference_labels),
        num_members_(served->size()),
        served_labels_(static_cast<size_t>(test.size()), -1) {
    serve::ServerConfig config;
    config.max_batch_rows = 64;
    // Ship a partial batch at once: with a closed-loop caller a coalescing
    // deadline would dominate latency instead of the work.
    config.max_delay_ms = 0;
    config.num_batch_workers = 1;
    server_ = std::make_unique<serve::InferenceServer>(
        served, test.sample_elements(), test.num_classes(), config);
    const Status started = server_->Start();
    EDDE_CHECK(started.ok()) << started.ToString();
    Result<serve::ServeClient> client =
        serve::ServeClient::Connect("127.0.0.1", server_->port());
    EDDE_CHECK(client.ok()) << client.status().ToString();
    client_ = std::make_unique<serve::ServeClient>(std::move(client).ValueOrDie());
  }

  ~ServeSession() { server_->Stop(); }

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Sends whole rounds of the requests, one at a time, as many rounds as
  /// start before `seconds` have passed (at least one), and appends what it
  /// measured to `phase`.
  void Run(double seconds, Phase* phase, CheckResult* check) {
    const ServeCounters before = ServeCounters::Read();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    do {
      for (const Request& r : *requests_) Send(r, phase, check);
    } while (Clock::now() < deadline);
    phase->serve_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    phase->served.AddDelta(before, ServeCounters::Read());
  }

  /// The label served for each test row (-1 where none was served).
  const std::vector<int>& served_labels() const { return served_labels_; }

 private:
  void Send(const Request& r, Phase* phase, CheckResult* check) {
    const Clock::time_point t0 = Clock::now();
    Result<serve::PredictResponse> resp = client_->Predict(r.wire);
    const Clock::time_point t1 = Clock::now();
    phase->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    ++phase->requests;
    if (!resp.ok()) {
      ++phase->failed;
      check->Fail("request " + std::to_string(r.wire.id) +
                  ": transport failure: " + resp.status().ToString());
      return;
    }
    const serve::PredictResponse& response = resp.ValueOrDie();
    if (!response.ok) ++phase->failed;
    const CheckResult ok = CheckServedResponse(
        r.wire.id, r.rows, response, *reference_labels_, num_members_);
    if (!ok.ok) {
      check->Fail(ok.message);
      return;
    }
    phase->rows_answered += r.wire.rows;
    for (size_t i = 0; i < r.rows.size(); ++i) {
      served_labels_[static_cast<size_t>(r.rows[i])] = response.labels[i];
    }
  }

  const std::vector<Request>* requests_;
  const std::vector<int>* reference_labels_;
  int64_t num_members_;
  std::vector<int> served_labels_;
  std::unique_ptr<serve::InferenceServer> server_;
  std::unique_ptr<serve::ServeClient> client_;
};

/// Accuracy of the served labels; every test row must have been served.
double ServedAccuracy(const std::vector<int>& served, const Dataset& test,
                      CheckResult* check) {
  int64_t correct = 0;
  for (size_t i = 0; i < served.size(); ++i) {
    if (served[i] < 0) {
      check->Fail("test row " + std::to_string(i) + " was never served");
      return 0.0;
    }
    if (served[i] == test.labels()[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(served.size());
}

// ---------------------------------------------------------------------------
// Rounds: train an ensemble, check it, serve it.

/// The program's test-set prediction, checked against the benchmark's own
/// Eq. 16. Returns the labels a correct server must answer with.
std::vector<int> EvaluateEnsemble(const EnsembleModel& model,
                                  const Dataset& test, int64_t num_members,
                                  double* test_acc, CheckResult* check) {
  const CheckResult alphas = CheckAlphas(model.alphas(), num_members);
  if (!alphas.ok) check->Fail(alphas.message);
  const std::vector<Tensor> member_probs = model.MemberProbs(test);
  const Tensor ensemble_probs = model.PredictProbs(test);
  const std::vector<int> program_labels = model.PredictLabels(test);
  const CheckResult eq16 =
      CheckEnsemblePrediction(member_probs, model.alphas(), ensemble_probs,
                              program_labels, test.labels(), test_acc);
  if (!eq16.ok) check->Fail(eq16.message);
  return ReferenceLabels(RecomputeEq16(member_probs, model.alphas()),
                         program_labels);
}

/// A run's rounds. Each round trains EDDE at the workload's budget and then
/// serves for the workload's serving time. Training is deterministic for a
/// seed, so the first round's ensemble is the one every round would
/// produce: it is checked against the benchmark's Eq. 16 and served by one
/// server for the whole run, and each later training must reproduce its α.
class Rounds {
 public:
  Rounds(const Workload& w, const std::vector<Request>& requests)
      : w_(w), requests_(requests) {}

  /// Whole rounds (at least one) until the kept rounds add up to
  /// `seconds`, or until kStealGraceSeconds past `seconds`. A round is kept
  /// unless the host stole more than kMaxStealShare of the CPUs' time during
  /// it; if every round was stolen from, all are kept.
  Measured Run(double seconds, CheckResult* check) {
    Measured m;
    const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    double kept_seconds = 0.0;
    const Timer elapsed;
    do {
      Phase round;
      const double steal0 = StealSeconds();
      const Timer wall;
      Round(&round, check);
      const double round_seconds = wall.Seconds();
      m.all.Add(round);
      if (StealSeconds() - steal0 <= kMaxStealShare * cpus * round_seconds) {
        m.kept.Add(round);
        kept_seconds += round_seconds;
      } else {
        ++m.set_aside;
      }
    } while (kept_seconds < seconds &&
             elapsed.Seconds() < seconds + kStealGraceSeconds);
    if (m.kept.train_seconds.empty()) m.kept = m.all;
    return m;
  }

  const EnsembleModel& model() const { return model_; }
  double test_acc_recomputed() const { return test_acc_recomputed_; }
  /// Accuracy of the labels served so far.
  double TestAccServed(CheckResult* check) const {
    return ServedAccuracy(session_->served_labels(), w_.data.test, check);
  }
  void StopServing() { session_.reset(); }

 private:
  void Round(Phase* phase, CheckResult* check) {
    Counter* samples = MetricsRegistry::Global().GetCounter("trainer.samples");
    Counter* retrains =
        MetricsRegistry::Global().GetCounter("edde.diverged_member_retrains");
    const int64_t members = w_.budget.method.num_members;
    std::unique_ptr<EnsembleMethod> method = w_.MakeMethod();
    const int64_t samples0 = samples->Value();
    const int64_t retrains0 = retrains->Value();
    const Timer timer;
    EnsembleModel model = method->Train(w_.data.train, w_.factory);
    phase->train_seconds.push_back(timer.Seconds());
    const int64_t retrained = retrains->Value() - retrains0;
    phase->retrains += retrained;
    const CheckResult work = CheckSamplesTrained(
        samples->Value() - samples0, w_.budget.edde_first_epochs,
        w_.budget.edde_rest_epochs, members, retrained, w_.data.train.size());
    if (!work.ok) check->Fail(work.message);

    if (session_ == nullptr) {
      model_ = std::move(model);
      reference_ = EvaluateEnsemble(model_, w_.data.test, members,
                                    &test_acc_recomputed_, check);
      served_ = MakeServedEnsemble(model_, w_.data.test);
      session_ = std::make_unique<ServeSession>(&served_, w_.data.test,
                                                &requests_, &reference_);
    } else if (model.alphas() != model_.alphas()) {
      check->Fail("a repeated training with the same seed changed alpha");
    }
    session_->Run(w_.serve_seconds_per_round, phase, check);
  }

  const Workload& w_;
  const std::vector<Request>& requests_;
  EnsembleModel model_;
  EnsembleModel served_;  // views of model_'s members
  std::vector<int> reference_;
  double test_acc_recomputed_ = 0.0;
  std::unique_ptr<ServeSession> session_;  // declared last: stops first
};

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only). Each times calls into one layer's
// public functions at the shapes the workload that exercises it uses.

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit) {
  m->push_back({name, {value, unit}});
}

Tensor GatherBatch(const Dataset& data, int64_t batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> idx(static_cast<size_t>(batch));
  for (int64_t& i : idx) {
    i = static_cast<int64_t>(rng.NextU64() % static_cast<uint64_t>(data.size()));
  }
  return data.GatherFeatures(idx);
}

Tensor RandomTensor(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return t;
}

/// GEMM throughput over the im2col GEMMs of one ResNet forward, per image.
double ProbeGemmGflops(const ResNetConfig& cfg, int64_t image) {
  struct Gemm3 { int64_t m, n, k; };
  std::vector<Gemm3> shapes;
  auto conv = [&](int64_t cin, int64_t cout, int64_t k, int64_t stride,
                  int64_t h) {
    const int64_t pad = k / 2;
    const int64_t oh = (h + 2 * pad - k) / stride + 1;
    shapes.push_back({cout, oh * oh, cin * k * k});
    return oh;
  };
  int64_t h = conv(cfg.in_channels, cfg.base_width, 3, 1, image);
  int64_t cin = cfg.base_width;
  for (int s = 0; s < 3; ++s) {
    const int64_t width = static_cast<int64_t>(cfg.base_width) << s;
    for (int b = 0; b < cfg.BlocksPerStage(); ++b) {
      const int64_t stride = (s > 0 && b == 0) ? 2 : 1;
      const int64_t oh = conv(cin, width, 3, stride, h);
      conv(width, width, 3, 1, oh);
      if (stride == 2) conv(cin, width, 1, 2, h);
      h = oh;
      cin = width;
    }
  }
  double flops = 0.0;
  size_t a_max = 0, b_max = 0, c_max = 0;
  for (const Gemm3& g : shapes) {
    flops += 2.0 * static_cast<double>(g.m * g.n * g.k);
    a_max = std::max(a_max, static_cast<size_t>(g.m * g.k));
    b_max = std::max(b_max, static_cast<size_t>(g.k * g.n));
    c_max = std::max(c_max, static_cast<size_t>(g.m * g.n));
  }
  std::vector<float> a(a_max, 0.5f), b(b_max, 0.25f), c(c_max, 0.0f);
  constexpr int kImages = 256;
  const double seconds = MedianSeconds(9, [&] {
    for (int i = 0; i < kImages; ++i) {
      for (const Gemm3& g : shapes) {
        GemmRaw(false, false, g.m, g.n, g.k, 1.0f, a.data(), g.k, b.data(),
                g.n, 0.0f, c.data(), g.n);
      }
    }
  });
  return flops * kImages / seconds / 1e9;
}

void ProbeResNet(const Workload& resnet, Metrics* m) {
  const int64_t batch = resnet.budget.method.batch_size;
  std::unique_ptr<Module> model = resnet.factory(11);
  const Tensor x = GatherBatch(resnet.data.train, batch, 12);
  Tensor logits;
  const double fwd = MedianSeconds(31, [&] { logits = model->Forward(x, true); });
  const Tensor grad(logits.shape(), 1.0f / static_cast<float>(batch));
  const double bwd = MedianSeconds(31, [&] {
    model->Forward(x, true);
    model->Backward(grad);
    model->ZeroGrad();
  });
  Put(m, "nn.resnet.fwd_ms", fwd * 1e3, "ms");
  Put(m, "nn.resnet.bwd_ms", std::max(0.0, bwd - fwd) * 1e3, "ms");

  const ResNetConfig& cfg = dynamic_cast<ResNet*>(model.get())->config();
  const int64_t image = resnet.data.train.SampleDims().back();
  Put(m, "tensor.gemm_gflops", ProbeGemmGflops(cfg, image), "GFLOP/s");

  // One 3x3 conv and one BatchNorm at each stage's width and resolution.
  double conv_f = 0, conv_b = 0, bn_f = 0, bn_b = 0;
  int64_t h = image;
  Rng rng(13);
  for (int s = 0; s < 3; ++s) {
    const int64_t width = static_cast<int64_t>(cfg.base_width) << s;
    if (s > 0) h = (h - 1) / 2 + 1;
    const Tensor in = RandomTensor(Shape{batch, width, h, h}, 14 + s);
    Conv2d conv(width, width, 3, 1, 1, false, &rng);
    BatchNorm bn(width);
    Tensor y;
    conv_f += MedianSeconds(51, [&] { y = conv.Forward(in, true); });
    conv_b += MedianSeconds(51, [&] { conv.Backward(y); conv.ZeroGrad(); });
    bn_f += MedianSeconds(51, [&] { y = bn.Forward(in, true); });
    bn_b += MedianSeconds(51, [&] { bn.Backward(y); bn.ZeroGrad(); });
  }
  Put(m, "nn.conv2d.fwd_ms", conv_f * 1e3, "ms");
  Put(m, "nn.conv2d.bwd_ms", conv_b * 1e3, "ms");
  Put(m, "nn.batchnorm.fwd_ms", bn_f * 1e3, "ms");
  Put(m, "nn.batchnorm.bwd_ms", bn_b * 1e3, "ms");
}

void ProbeTextCnn(const Workload& text, Metrics* m) {
  const int64_t batch = text.budget.method.batch_size;
  std::unique_ptr<Module> model = text.factory(21);
  const Tensor x = GatherBatch(text.data.train, batch, 22);
  Tensor logits;
  const double fwd = MedianSeconds(31, [&] { logits = model->Forward(x, true); });
  const Tensor grad(logits.shape(), 1.0f / static_cast<float>(batch));
  const double bwd = MedianSeconds(31, [&] {
    model->Forward(x, true);
    model->Backward(grad);
    model->ZeroGrad();
  });
  Put(m, "nn.textcnn.fwd_ms", fwd * 1e3, "ms");
  Put(m, "nn.textcnn.bwd_ms", std::max(0.0, bwd - fwd) * 1e3, "ms");
  // Eval forwards at each served request size.
  std::vector<Tensor> inputs;
  int64_t rows = 0;
  for (const int64_t r : kRequestRows) {
    inputs.push_back(GatherBatch(text.data.test, r, 23 + r));
    rows += r;
  }
  const double eval = MedianSeconds(31, [&] {
    for (const Tensor& in : inputs) model->Forward(in, false);
  });
  Put(m, "nn.textcnn.eval_us_per_row", eval * 1e6 / static_cast<double>(rows),
      "us");
}

/// One later-member TrainModel call (weighted loss against the ensemble's
/// soft targets, as EDDE rounds 2..T train) for the trainer counters.
void ProbeTrainer(const Workload& w, const EnsembleModel& trained,
                  Metrics* m) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* allocs = reg.GetCounter("tensor.allocs");
  Counter* bytes = reg.GetCounter("tensor.alloc_bytes");
  Counter* batches = reg.GetCounter("trainer.batches");
  const Histogram* step = reg.GetHistogram("time/trainer.batch");

  const Tensor reference = trained.PredictProbs(w.data.train);
  const std::vector<float> weights(static_cast<size_t>(w.data.train.size()), 1.0f);
  TrainContext ctx;
  ctx.sample_weights = &weights;
  ctx.reference_probs = &reference;
  ctx.loss.diversity_gamma = w.options.gamma;
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = w.budget.method.batch_size;
  tc.sgd = w.budget.method.sgd;
  tc.augment = w.budget.method.augment;
  tc.augment_config = w.budget.method.augment_config;
  tc.seed = 31;
  std::unique_ptr<Module> model = w.factory(32);

  const int64_t a0 = allocs->Value(), b0 = bytes->Value(), n0 = batches->Value();
  const double s0 = step->Sum();
  const int64_t c0 = step->Count();
  const double cpu0 = ProcessCpuSeconds();
  const Timer wall;
  TrainModel(model.get(), w.data.train, tc, ctx);
  const double wall_s = wall.Seconds();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double steps = static_cast<double>(batches->Value() - n0);
  Put(m, "tensor.allocs_per_step",
      static_cast<double>(allocs->Value() - a0) / steps, "count");
  Put(m, "tensor.alloc_bytes_per_step",
      static_cast<double>(bytes->Value() - b0) / steps, "bytes");
  Put(m, "ensemble.trainer.step_ms",
      (step->Sum() - s0) / static_cast<double>(step->Count() - c0) * 1e3, "ms");
  Put(m, "ensemble.trainer.cores_used", cpu_s / wall_s, "cores");

  // Optimizer and input pipeline at the same model and batch.
  Sgd sgd(model.get(), w.budget.method.sgd);
  const Tensor x = GatherBatch(w.data.train, tc.batch_size, 33);
  const Tensor logits = model->Forward(x, true);
  model->Backward(Tensor(logits.shape(), 0.01f));
  Put(m, "optim.sgd_step_ms", MedianSeconds(101, [&] { sgd.Step(); }) * 1e3,
      "ms");
  std::vector<int64_t> idx(static_cast<size_t>(tc.batch_size));
  Rng rng(34);
  Tensor staging;
  const double gather = MedianSeconds(101, [&] {
    for (int64_t& i : idx) {
      i = static_cast<int64_t>(rng.NextU64() %
                               static_cast<uint64_t>(w.data.train.size()));
    }
    w.data.train.GatherFeaturesInto(idx.data(), tc.batch_size, &staging);
  });
  Put(m, "data.gather_ms_per_batch", gather * 1e3, "ms");
}

/// The per-round EDDE work outside TrainModel, on the trained ensemble.
void ProbeRound(const Workload& w, const EnsembleModel& trained, Metrics* m) {
  const Dataset& train = w.data.train;
  Tensor probs;
  const double predict = MedianSeconds(3, [&] { probs = trained.PredictProbs(train); });
  Put(m, "ensemble.predict_probs_rows_per_s",
      static_cast<double>(train.size()) / predict, "rows/s");
  Module* last = trained.member(trained.size() - 1);
  const double round = MedianSeconds(3, [&] {
    const Tensor ensemble_probs = trained.PredictProbs(train);
    const Tensor member_probs = PredictProbs(last, train);
    PerSampleSimilarity(member_probs, ensemble_probs);
    PerSampleBias(member_probs, train.labels());
    std::unique_ptr<Module> student = w.factory(41);
    TransferKnowledge(last, student.get(), w.options.beta, w.options.granularity);
    EnsembleDiversity(trained.MemberProbs(train));
  });
  Put(m, "core.round_overhead_s", round, "s");
}

/// Wire encode/decode and a loopback frame echo, on the workload's own
/// requests.
void ProbeWire(const std::vector<Request>& requests, int64_t num_members,
               Metrics* m) {
  int64_t rows = 0;
  std::vector<serve::PredictResponse> responses;
  for (const Request& r : requests) {
    rows += r.wire.rows;
    serve::PredictResponse resp;
    resp.id = r.wire.id;
    resp.ok = true;
    resp.generation = 1;
    resp.labels.assign(static_cast<size_t>(r.wire.rows), 1);
    resp.depth.assign(static_cast<size_t>(r.wire.rows), num_members);
    responses.push_back(std::move(resp));
  }
  std::vector<std::string> frames(requests.size()), replies(requests.size());
  const double encode = MedianSeconds(5, [&] {
    for (size_t i = 0; i < requests.size(); ++i) {
      frames[i] = serve::BuildPredictRequest(requests[i].wire);
      replies[i] = serve::BuildPredictResponse(responses[i]);
    }
  });
  const double decode = MedianSeconds(5, [&] {
    for (size_t i = 0; i < frames.size(); ++i) {
      serve::PredictRequest req;
      serve::PredictResponse resp;
      EDDE_CHECK(serve::ParsePredictRequest(frames[i], &req).ok());
      EDDE_CHECK(serve::ParsePredictResponse(replies[i], &resp).ok());
    }
  });
  Put(m, "serve.protocol.encode_us_per_row",
      encode * 1e6 / static_cast<double>(rows), "us");
  Put(m, "serve.protocol.decode_us_per_row",
      decode * 1e6 / static_cast<double>(rows), "us");

  Result<UniqueFd> listener = ListenTcp(0);
  EDDE_CHECK(listener.ok());
  const uint16_t port = LocalPort(listener.ValueOrDie().get()).ValueOrDie();
  std::thread echo([&] {
    Result<UniqueFd> conn = AcceptConn(listener.ValueOrDie().get());
    EDDE_CHECK(conn.ok());
    std::string payload;
    while (RecvFrame(conn.ValueOrDie().get(), &payload).ok()) {
      if (!SendFrame(conn.ValueOrDie().get(), payload).ok()) break;
    }
  });
  {
    Result<UniqueFd> client = ConnectTcp("127.0.0.1", port);
    EDDE_CHECK(client.ok());
    const int fd = client.ValueOrDie().get();
    std::vector<double> rtt;
    std::string back;
    for (int rep = 0; rep < 3; ++rep) {
      for (const std::string& f : frames) {
        const Timer t;
        EDDE_CHECK(SendFrame(fd, f).ok());
        EDDE_CHECK(RecvFrame(fd, &back).ok());
        rtt.push_back(t.Seconds());
      }
    }
    Put(m, "utils.socket.frame_rtt_us", Median(rtt) * 1e6, "us");
  }  // closing the client ends the echo loop
  echo.join();
}

void PutServeCounters(const ServeCounters& c, Metrics* m) {
  Put(m, "serve.batcher.queue_wait_ms",
      c.queue_wait_sum / c.queue_wait_count * 1e3, "ms");
  Put(m, "serve.batcher.rows_per_batch", c.batch_rows_sum / c.batch_rows_count,
      "rows");
  Put(m, "serve.server.batch_ms", c.batch_sum / c.batch_count * 1e3, "ms");
  Put(m, "serve.cascade.members_per_row", c.member_row_evals / c.rows,
      "count");
}

// ---------------------------------------------------------------------------
// Entry point: run a workload, print the result

struct RunOutput {
  CheckResult check;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const RunOutput& out) {
  std::printf("\n%-40s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, vu] : out.metrics) {
    std::printf("%-40s %16s  %s\n", name.c_str(), FormatNumber(vu.first).c_str(),
                vu.second.c_str());
  }
  if (!out.check.ok) {
    std::printf("CHECK FAILED: %s\n", out.check.message.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.check.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + FormatNumber(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  double launch_time = 0.0;  // CLOCK_MONOTONIC seconds at process launch
};

RunOutput RunWorkload(const Args& args) {
  RunOutput out;
  // ---- Set-up: inputs, models and the request plan.
  const Workload w = MakeWorkload(args.workload);
  const int64_t members = w.budget.method.num_members;
  const std::vector<Request> requests = MakeRequests(w.data.test, args.seed);
  const double setup_s = MonotonicSeconds() - args.launch_time;

  // ---- Measured phase. A traced run splits it: an untraced half, then a
  // traced half whose slowdown is the tracing overhead.
  Rounds rounds(w, requests);
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Measured untraced = rounds.Run(seconds, &out.check);
  auto count = [&](const Measured& run) {
    out.attempted +=
        static_cast<int64_t>(run.all.train_seconds.size()) + run.all.requests;
    out.failed += run.all.failed;
  };
  count(untraced);
  const Phase& phase = untraced.kept;

  if (!args.trace) {
    const double served_acc = rounds.TestAccServed(&out.check);
    Put(&out.metrics, "setup_s", setup_s, "s");
    Put(&out.metrics, "train_s", Mean(phase.train_seconds), "s");
    Put(&out.metrics, "test_acc",
        w.serve_measured ? served_acc : rounds.test_acc_recomputed(),
        "fraction");
    Put(&out.metrics, "peak_rss_mb", PeakRssMb(), "MB");
    Put(&out.metrics, "serve_rows_per_s", phase.RowsPerSecond(), "rows/s");
    Put(&out.metrics, "serve_p50_ms", Quantile(phase.latency_ms, 0.5), "ms");
    Put(&out.metrics, "serve_p99_ms", Quantile(phase.latency_ms, 0.99), "ms");
    std::printf("%zu trainings; %" PRId64 " requests; %d rounds set aside "
                "for host steal; %.4f members/row\n",
                phase.train_seconds.size(), phase.requests, untraced.set_aside,
                phase.served.member_row_evals / phase.served.rows);
    return out;
  }

  const std::string stem =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
  SetTracePath(stem + ".trace.json");
  const Measured traced_run = rounds.Run(seconds, &out.check);
  count(traced_run);
  const Phase& traced = traced_run.kept;
  rounds.TestAccServed(&out.check);  // every test row was answered
  rounds.StopServing();  // free the cores for the layer probes
  const double overhead_pct =
      w.serve_measured
          ? (phase.RowsPerSecond() / traced.RowsPerSecond() - 1.0) * 100.0
          : (Mean(traced.train_seconds) / Mean(phase.train_seconds) - 1.0) * 100.0;

  Metrics& m = out.metrics;
  PutServeCounters(traced.served, &m);
  const double trainings = static_cast<double>(
      untraced.all.train_seconds.size() + traced_run.all.train_seconds.size());
  const double retrains =
      static_cast<double>(untraced.all.retrains + traced_run.all.retrains);
  Put(&m, "core.member_trainings_per_member",
      (members * trainings + retrains) / (members * trainings), "count");
  Put(&m, "data.generate_s", w.generate_seconds, "s");
  Put(&m, "trace.overhead_pct", overhead_pct, "%");
  ProbeTrainer(w, rounds.model(), &m);
  ProbeRound(w, rounds.model(), &m);
  ProbeWire(requests, members, &m);
  // The conv/BatchNorm/GEMM layers are probed at train_resnet's shapes and
  // the TextCNN layers at serve_textcnn's, whichever workload runs.
  ProbeResNet(w.arch == Arch::kResNet ? w : MakeWorkload("train_resnet"),
              &m);
  ProbeTextCnn(w.arch == Arch::kTextCnn ? w : MakeWorkload("serve_textcnn"),
               &m);
  std::sort(m.begin(), m.end());

  const Status dumped = DumpTrace();
  if (!dumped.ok()) out.check.Fail("trace dump failed: " + dumped.ToString());
  SetTracePath("");  // nothing left for the exit-time dump
  std::ofstream table(stem + ".layers.tsv");
  for (const auto& [name, vu] : m) {
    table << name << '\t' << FormatNumber(vu.first) << '\t' << vu.second << '\n';
  }
  return out;
}

}  // namespace
}  // namespace e2e
}  // namespace edde

int main(int argc, char** argv) {
  using namespace edde;
  const double main_entry = e2e::MonotonicSeconds();
  FlagParser flags;
  flags.Define("workload", "", "train_resnet | serve_textcnn");
  flags.Define("seed", "1",
               "seed of the traffic: which test rows share a request and "
               "the order of the requests");
  flags.Define("seconds", "45", "length of the measured phase");
  flags.Define("trace", "0", "1 = traced run printing the per-layer metrics");
  flags.Define("out_dir", ".bench_out", "where traced runs write their files");
  flags.Define("launch_time", "0",
               "CLOCK_MONOTONIC seconds at which the launcher started this "
               "process (0 = time set-up from main)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested()) {
    if (!parsed.ok()) std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    flags.PrintHelp(argv[0]);
    return 2;
  }
  e2e::Args args;
  args.workload = flags.GetString("workload");
  args.seed = static_cast<uint64_t>(std::stoull(flags.GetString("seed")));
  args.seconds = flags.GetDouble("seconds");
  args.trace = flags.GetInt("trace") != 0;
  args.out_dir = flags.GetString("out_dir");
  args.launch_time = flags.GetDouble("launch_time");
  if (args.launch_time <= 0.0 || args.launch_time > main_entry) {
    args.launch_time = main_entry;
  }
  if (!e2e::IsWorkload(args.workload) || args.seconds <= 0.0) {
    std::fprintf(stderr, "unknown --workload '%s' or --seconds <= 0\n",
                 args.workload.c_str());
    return 2;
  }
  SetMinLogLevel(LogLevel::kWarning);
  SetNumThreads(e2e::kPoolThreads);
  e2e::PrintResult(e2e::RunWorkload(args));
  return 0;
}
