/// End-to-end tests for the batched inference server (src/serve/,
/// DESIGN.md §12): request/response over a real loopback socket, label
/// exactness against the local full-ensemble predict, deadline-driven
/// partial batches, malformed/oversized request handling, graceful Stop,
/// and crash-at-failpoint followed by a fresh server resuming service.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ensemble/ensemble_model.h"
#include "nn/mlp.h"
#include "nn/textcnn.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/server.h"
#include "test_util.h"
#include "utils/failpoint.h"
#include "utils/json.h"
#include "utils/metrics.h"
#include "utils/socket.h"
#include "utils/trace.h"

namespace edde {
namespace {

using testing::MakeBlobs;

constexpr int kDim = 6;
constexpr int kClasses = 4;

std::unique_ptr<Mlp> SmallMlp(uint64_t seed) {
  MlpConfig cfg;
  cfg.in_features = kDim;
  cfg.hidden = {10};
  cfg.num_classes = kClasses;
  return std::make_unique<Mlp>(cfg, seed);
}

/// Untrained members suffice: serving exactness is about prediction
/// plumbing, not accuracy. Varied α exercises the cascade ordering.
EnsembleModel MakeModel() {
  EnsembleModel m;
  m.AddMember(SmallMlp(11), 2.5);
  m.AddMember(SmallMlp(22), 0.7);
  m.AddMember(SmallMlp(33), 1.4);
  return m;
}

std::vector<float> RowFeatures(const Dataset& data, int64_t row) {
  const float* p = data.features().data() + row * kDim;
  return std::vector<float>(p, p + kDim);
}

serve::PredictRequest RequestForRows(const Dataset& data, int64_t start,
                                     int64_t rows, int64_t id) {
  serve::PredictRequest req;
  req.id = id;
  req.rows = rows;
  req.dim = kDim;
  const float* p = data.features().data() + start * kDim;
  req.features.assign(p, p + rows * kDim);
  return req;
}

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    failpoint::Clear();
  }
  void TearDown() override { failpoint::Clear(); }
};

TEST_F(ServeServerTest, ServedLabelsMatchLocalPredictBothModes) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(32, kDim, kClasses, 5);
  const std::vector<int> reference = model.PredictLabels(data);

  for (const bool cascade : {true, false}) {
    serve::ServerConfig config;
    config.cascade = cascade;
    config.max_batch_rows = 8;
    serve::InferenceServer server(&model, kDim, kClasses, config);
    ASSERT_TRUE(server.Start().ok());

    Result<serve::ServeClient> conn =
        serve::ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok()) << conn.status();
    serve::ServeClient& client = conn.ValueOrDie();

    // Odd-sized requests so batches coalesce across requests.
    for (int64_t start = 0; start < 32; start += 3) {
      const int64_t rows = std::min<int64_t>(3, 32 - start);
      Result<serve::PredictResponse> resp =
          client.Predict(RequestForRows(data, start, rows, start));
      ASSERT_TRUE(resp.ok()) << resp.status();
      const serve::PredictResponse& r = resp.ValueOrDie();
      ASSERT_TRUE(r.ok) << r.error;
      ASSERT_EQ(static_cast<int64_t>(r.labels.size()), rows);
      for (int64_t i = 0; i < rows; ++i) {
        EXPECT_EQ(r.labels[static_cast<size_t>(i)],
                  reference[static_cast<size_t>(start + i)])
            << "cascade=" << cascade << " row " << start + i;
        EXPECT_GE(r.depth[static_cast<size_t>(i)], 1);
        EXPECT_LE(r.depth[static_cast<size_t>(i)], model.size());
      }
    }
    server.Stop();
  }
}

TEST_F(ServeServerTest, QuantizedEnsembleServesExactLocalLabelsBothModes) {
  // Same exactness contract as above, but with every member running the
  // int8 path (DESIGN.md §13): what the wire returns must match what a
  // local PredictProbs over the same quantized model computes — serving
  // adds batching and the cascade on top of quantization, never more noise.
  EnsembleModel model = MakeModel();
  model.SetPrecision(Precision::kInt8);
  const Dataset data = MakeBlobs(32, kDim, kClasses, 5);
  const std::vector<int> reference = model.PredictLabels(data);

  for (const bool cascade : {true, false}) {
    serve::ServerConfig config;
    config.cascade = cascade;
    config.max_batch_rows = 8;
    serve::InferenceServer server(&model, kDim, kClasses, config);
    ASSERT_TRUE(server.Start().ok());

    Result<serve::ServeClient> conn =
        serve::ServeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(conn.ok()) << conn.status();
    serve::ServeClient& client = conn.ValueOrDie();

    for (int64_t start = 0; start < 32; start += 3) {
      const int64_t rows = std::min<int64_t>(3, 32 - start);
      Result<serve::PredictResponse> resp =
          client.Predict(RequestForRows(data, start, rows, start));
      ASSERT_TRUE(resp.ok()) << resp.status();
      const serve::PredictResponse& r = resp.ValueOrDie();
      ASSERT_TRUE(r.ok) << r.error;
      ASSERT_EQ(static_cast<int64_t>(r.labels.size()), rows);
      for (int64_t i = 0; i < rows; ++i) {
        EXPECT_EQ(r.labels[static_cast<size_t>(i)],
                  reference[static_cast<size_t>(start + i)])
            << "int8 cascade=" << cascade << " row " << start + i;
      }
    }
    server.Stop();
  }
}

TEST_F(ServeServerTest, DeadlineShipsPartialBatch) {
  // max_batch_rows is far larger than the single row we send, so only the
  // max_delay deadline can flush the batch; a hung server would block
  // Predict forever and time the test out.
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 6);
  serve::ServerConfig config;
  config.max_batch_rows = 1024;
  config.max_delay_ms = 5;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  Result<int> label = conn.ValueOrDie().PredictRow(RowFeatures(data, 0));
  ASSERT_TRUE(label.ok()) << label.status();
  EXPECT_EQ(label.ValueOrDie(), model.PredictLabels(data)[0]);
  server.Stop();
}

TEST_F(ServeServerTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 7);
  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::ServeClient& client = conn.ValueOrDie();

  ASSERT_TRUE(client.SendRaw("this is not json").ok());
  Result<std::string> raw = client.RecvRaw();
  ASSERT_TRUE(raw.ok()) << raw.status();
  serve::PredictResponse err;
  ASSERT_TRUE(serve::ParsePredictResponse(raw.ValueOrDie(), &err).ok());
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.id, -1);

  // A protocol-level error is per-request; the connection stays usable.
  Result<int> label = client.PredictRow(RowFeatures(data, 1), /*id=*/9);
  ASSERT_TRUE(label.ok()) << label.status();
  server.Stop();
}

TEST_F(ServeServerTest, WrongDimGetsAddressedErrorResponse) {
  const EnsembleModel model = MakeModel();
  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::PredictRequest req;
  req.id = 77;
  req.rows = 1;
  req.dim = kDim + 1;
  req.features.assign(static_cast<size_t>(req.dim), 0.5f);
  Result<serve::PredictResponse> resp = conn.ValueOrDie().Predict(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp.ValueOrDie().ok);
  EXPECT_EQ(resp.ValueOrDie().id, 77);
  server.Stop();
}

TEST_F(ServeServerTest, OversizedRequestGetsErrorResponse) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(8, kDim, kClasses, 8);
  serve::ServerConfig config;
  config.max_request_rows = 4;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  Result<serve::PredictResponse> resp =
      conn.ValueOrDie().Predict(RequestForRows(data, 0, 8, 1));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp.ValueOrDie().ok);
  EXPECT_NE(resp.ValueOrDie().error.find("cap"), std::string::npos);
  server.Stop();
}

TEST_F(ServeServerTest, WantProbsReturnsDistributions) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 9);
  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::PredictRequest req = RequestForRows(data, 0, 2, 3);
  req.want_probs = true;
  Result<serve::PredictResponse> resp = conn.ValueOrDie().Predict(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  const serve::PredictResponse& r = resp.ValueOrDie();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.k, kClasses);
  ASSERT_EQ(r.probs.size(), static_cast<size_t>(2 * kClasses));
  for (int64_t row = 0; row < 2; ++row) {
    float total = 0.0f;
    for (int64_t c = 0; c < kClasses; ++c) {
      const float p = r.probs[static_cast<size_t>(row * kClasses + c)];
      EXPECT_GE(p, 0.0f);
      total += p;
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
  server.Stop();
}

TEST_F(ServeServerTest, StartRejectsDegenerateEnsemble) {
  EnsembleModel empty;
  serve::InferenceServer server(&empty, kDim, kClasses, {});
  const Status s = server.Start();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeServerTest, StopIsIdempotentAndClosesConnections) {
  const EnsembleModel model = MakeModel();
  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  server.Stop();
  server.Stop();  // idempotent
  // The server hung up: the next read on the client side must not succeed.
  Result<std::string> raw = conn.ValueOrDie().RecvRaw();
  EXPECT_FALSE(raw.ok());
}

// ---------------------------------------------------------------------------
// Observability plane (DESIGN.md §14)
// ---------------------------------------------------------------------------

TEST_F(ServeServerTest, MetricsEndpointServesPrometheusExposition) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 11);
  serve::ServerConfig config;
  config.http_port = 0;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.http_port(), 0);

  // Serve something first so the serve_* instruments exist.
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.ValueOrDie().PredictRow(RowFeatures(data, 0)).ok());

  Result<serve::HttpResponse> got =
      serve::HttpGet("127.0.0.1", server.http_port(), "/metrics");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.ValueOrDie().status, 200);
  EXPECT_NE(got.ValueOrDie().content_type.find("version=0.0.4"),
            std::string::npos);
  const std::string& body = got.ValueOrDie().body;
  EXPECT_NE(
      body.find("# TYPE edde_serve_request_latency_seconds histogram"),
      std::string::npos);
  EXPECT_NE(body.find("edde_serve_request_latency_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find(
                "edde_serve_request_latency_seconds_quantile{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(body.find("edde_serve_rows "), std::string::npos);
  server.Stop();
}

TEST_F(ServeServerTest, HealthzFlipsTo503OnDrainAndBack) {
  const EnsembleModel model = MakeModel();
  serve::ServerConfig config;
  config.http_port = 0;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Result<serve::HttpResponse> got =
      serve::HttpGet("127.0.0.1", server.http_port(), "/healthz");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.ValueOrDie().status, 200);

  server.SetDraining(true);  // lame duck: serving continues, readiness off
  got = serve::HttpGet("127.0.0.1", server.http_port(), "/healthz");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().status, 503);
  EXPECT_NE(got.ValueOrDie().body.find("draining"), std::string::npos);

  server.SetDraining(false);
  got = serve::HttpGet("127.0.0.1", server.http_port(), "/healthz");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().status, 200);
  server.Stop();
}

TEST_F(ServeServerTest, HealthzFlipsTo503AtBackpressureCap) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 12);
  serve::ServerConfig config;
  config.http_port = 0;
  config.max_batch_rows = 1;
  config.max_delay_ms = 0;
  config.max_queue_rows = 4;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::ServeClient& client = conn.ValueOrDie();

  // Stall the batch worker so admitted rows pile up to the cap, probing
  // readiness after every submit. Single-row requests fill the queue to
  // exactly max_queue_rows, at which point /healthz must answer 503.
  ASSERT_TRUE(failpoint::SetSpec("serve.batch=delay:300").ok());
  int sent = 0;
  bool saw_503 = false;
  for (int i = 0; i < 64 && !saw_503; ++i) {
    serve::PredictRequest req = RequestForRows(data, 0, 1, /*id=*/i);
    ASSERT_TRUE(client.SendRaw(serve::BuildPredictRequest(req)).ok());
    ++sent;
    Result<serve::HttpResponse> got =
        serve::HttpGet("127.0.0.1", server.http_port(), "/healthz");
    ASSERT_TRUE(got.ok()) << got.status();
    if (got.ValueOrDie().status == 503) {
      EXPECT_NE(got.ValueOrDie().body.find("backpressure"),
                std::string::npos);
      saw_503 = true;
    }
  }
  EXPECT_TRUE(saw_503) << "queue never reached the backpressure cap";
  failpoint::Clear();

  // Every submitted request is answered — served or rejected as overload.
  for (int i = 0; i < sent; ++i) {
    Result<std::string> raw = client.RecvRaw();
    ASSERT_TRUE(raw.ok()) << raw.status();
  }
  // With the queue drained, readiness recovers.
  Result<serve::HttpResponse> got =
      serve::HttpGet("127.0.0.1", server.http_port(), "/healthz");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().status, 200);
  server.Stop();
}

TEST_F(ServeServerTest, StatuszReportsModelCascadeAndQueue) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(8, kDim, kClasses, 13);
  serve::ServerConfig config;
  config.http_port = 0;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(conn.ValueOrDie().PredictRow(RowFeatures(data, i)).ok());
  }

  Result<serve::HttpResponse> got =
      serve::HttpGet("127.0.0.1", server.http_port(), "/statusz");
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got.ValueOrDie().status, 200);
  EXPECT_EQ(got.ValueOrDie().content_type, "application/json");

  JsonValue root;
  ASSERT_TRUE(JsonValue::Parse(got.ValueOrDie().body, &root).ok())
      << got.ValueOrDie().body;
  const JsonValue* srv = root.Get("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_DOUBLE_EQ(srv->GetNumberOr("members", 0), 3.0);
  EXPECT_EQ(srv->GetStringOr("precision", ""), "fp32");
  EXPECT_TRUE(srv->Get("cascade")->AsBool());
  EXPECT_TRUE(srv->Get("ready")->AsBool());
  EXPECT_GE(srv->GetNumberOr("uptime_seconds", -1.0), 0.0);
  ASSERT_NE(srv->Get("alphas"), nullptr);
  EXPECT_EQ(srv->Get("alphas")->AsArray().size(), 3u);
  // The cascade serves high α first: member 0 in α order is the 2.5 one.
  const JsonValue* counters = root.Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetNumberOr("serve.rows", 0), 4.0);
  EXPECT_GE(counters->GetNumberOr("serve.member_rows.0", 0), 4.0);
  const JsonValue* histograms = root.Get("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* depth = histograms->Get("serve.cascade_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->GetNumberOr("count", 0), 4.0);
  EXPECT_GE(depth->GetNumberOr("max", 0), 1.0);
  ASSERT_NE(root.Get("manifest"), nullptr);
  EXPECT_GT(root.Get("manifest")->GetNumberOr("pid", 0), 0.0);
  server.Stop();
}

TEST_F(ServeServerTest, TraceIdIsEchoedAndStampedOntoSpans) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 14);
  ResetTraceBuffers();
  const std::string trace_file =
      ::testing::TempDir() + "/serve_trace_test.json";
  SetTracePath(trace_file);

  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());

  constexpr uint64_t kId = 0xdeadbeefULL;
  serve::PredictRequest req = RequestForRows(data, 0, 1, /*id=*/5);
  req.trace_id = kId;
  Result<serve::PredictResponse> resp = conn.ValueOrDie().Predict(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_TRUE(resp.ValueOrDie().ok);
  EXPECT_EQ(resp.ValueOrDie().trace_id, kId);  // echoed on the wire

  // A request without an id gets a server-minted one echoed back.
  serve::PredictRequest anon = RequestForRows(data, 1, 1, /*id=*/6);
  Result<serve::PredictResponse> anon_resp = conn.ValueOrDie().Predict(anon);
  ASSERT_TRUE(anon_resp.ok());
  EXPECT_NE(anon_resp.ValueOrDie().trace_id, 0u);
  EXPECT_NE(anon_resp.ValueOrDie().trace_id, kId);

  server.Stop();
  ASSERT_TRUE(DumpTraceTo(trace_file).ok());
  SetTracePath("");

  JsonValue root;
  ASSERT_TRUE(JsonValue::ParseFile(trace_file, &root).ok());
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  const std::string want = FormatTraceId(kId);
  std::vector<std::string> tagged;  // span names carrying our id
  for (const JsonValue& e : events->AsArray()) {
    if (e.GetStringOr("ph", "") != "X") continue;
    const JsonValue* args = e.Get("args");
    if (args == nullptr) continue;
    if (args->GetStringOr("trace_id", "") == want) {
      tagged.push_back(e.GetStringOr("name", ""));
    }
  }
  // The request's path through the server: queue wait, the (single-request)
  // batch/predict window, per-member evaluation, end-to-end request span.
  auto has = [&tagged](const char* name) {
    return std::find(tagged.begin(), tagged.end(), name) != tagged.end();
  };
  EXPECT_TRUE(has("serve/queue_wait")) << tagged.size();
  EXPECT_TRUE(has("serve/request"));
  EXPECT_TRUE(has("serve/batch"));
  EXPECT_TRUE(has("serve/member"));
  ResetTraceBuffers();
}

TEST_F(ServeServerTest, PredictionsBitIdenticalWithPlaneOnOrOff) {
  // The acceptance bar for the whole plane: enabling HTTP + metrics +
  // trace ids must not move a single probability bit.
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(8, kDim, kClasses, 15);

  auto serve_probs = [&](bool plane, bool tag) {
    serve::ServerConfig config;
    config.http_port = plane ? 0 : -1;
    serve::InferenceServer server(&model, kDim, kClasses, config);
    EXPECT_TRUE(server.Start().ok());
    Result<serve::ServeClient> conn =
        serve::ServeClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(conn.ok());
    serve::PredictRequest req = RequestForRows(data, 0, 8, /*id=*/1);
    req.want_probs = true;
    if (tag) req.trace_id = 0xabc123ULL;
    Result<serve::PredictResponse> resp = conn.ValueOrDie().Predict(req);
    EXPECT_TRUE(resp.ok());
    if (plane) {
      // Scrape mid-flight state too: reading metrics must stay read-only.
      (void)serve::HttpGet("127.0.0.1", server.http_port(), "/metrics");
      (void)serve::HttpGet("127.0.0.1", server.http_port(), "/statusz");
    }
    server.Stop();
    return resp.ValueOrDie();
  };

  const serve::PredictResponse base = serve_probs(false, false);
  ASSERT_TRUE(base.ok);
  for (const bool tag : {false, true}) {
    const serve::PredictResponse got = serve_probs(true, tag);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(got.labels, base.labels) << "plane on, tag=" << tag;
    ASSERT_EQ(got.probs.size(), base.probs.size());
    for (size_t i = 0; i < base.probs.size(); ++i) {
      // Bitwise float equality, not tolerance.
      EXPECT_EQ(got.probs[i], base.probs[i]) << "prob " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch worker pool (DESIGN.md §15)
// ---------------------------------------------------------------------------

TEST_F(ServeServerTest, ResponsesBitIdenticalAcrossWorkerCounts) {
  // The worker-pool acceptance bar: the same pipelined request stream
  // served by 1 worker and by 4 (member stages interleaved across
  // batches) must yield identical labels, cascade depths, and probability
  // bits for every request, in cascade and full mode alike. Frames are
  // sent back-to-back before any read so batches coalesce however the
  // pool's timing falls — the responses must not care.
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(30, kDim, kClasses, 16);
  constexpr int kRequests = 10;  // 3 rows each

  auto serve_stream = [&](int workers, bool cascade) {
    serve::ServerConfig config;
    config.max_batch_rows = 8;
    config.cascade = cascade;
    config.num_batch_workers = workers;
    serve::InferenceServer server(&model, kDim, kClasses, config);
    EXPECT_TRUE(server.Start().ok());
    Result<serve::ServeClient> conn =
        serve::ServeClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(conn.ok());
    serve::ServeClient& client = conn.ValueOrDie();
    for (int i = 0; i < kRequests; ++i) {
      serve::PredictRequest req = RequestForRows(data, i * 3, 3, i);
      req.want_probs = true;
      EXPECT_TRUE(client.SendRaw(serve::BuildPredictRequest(req)).ok());
    }
    std::vector<serve::PredictResponse> by_id(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      Result<std::string> raw = client.RecvRaw();
      EXPECT_TRUE(raw.ok()) << raw.status();
      serve::PredictResponse resp;
      EXPECT_TRUE(serve::ParsePredictResponse(raw.ValueOrDie(), &resp).ok());
      EXPECT_TRUE(resp.ok) << resp.error;
      by_id[static_cast<size_t>(resp.id)] = std::move(resp);
    }
    server.Stop();
    return by_id;
  };

  for (const bool cascade : {true, false}) {
    SCOPED_TRACE(cascade ? "cascade" : "full");
    const std::vector<serve::PredictResponse> w1 = serve_stream(1, cascade);
    const std::vector<serve::PredictResponse> w4 = serve_stream(4, cascade);
    for (int i = 0; i < kRequests; ++i) {
      const size_t n = static_cast<size_t>(i);
      EXPECT_EQ(w4[n].labels, w1[n].labels) << "request " << i;
      EXPECT_EQ(w4[n].depth, w1[n].depth) << "request " << i;
      ASSERT_EQ(w4[n].probs.size(), w1[n].probs.size());
      for (size_t j = 0; j < w1[n].probs.size(); ++j) {
        // Bitwise float equality, not tolerance.
        EXPECT_EQ(w4[n].probs[j], w1[n].probs[j])
            << "request " << i << " prob " << j;
      }
    }
  }
}

TEST_F(ServeServerTest, OrderedWriterKeepsPerConnectionResponseOrder) {
  // Single-row batches + 4 workers: every request is its own batch and
  // batches complete in whatever order the pool's scheduling falls, so
  // without the sequence-numbered writer responses would interleave.
  // The protocol has no reordering on the client side — arrival order IS
  // the contract.
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(64, kDim, kClasses, 17);
  serve::ServerConfig config;
  config.max_batch_rows = 1;
  config.max_delay_ms = 0;
  config.num_batch_workers = 4;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::ServeClient& client = conn.ValueOrDie();
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    const serve::PredictRequest req = RequestForRows(data, i, 1, i);
    ASSERT_TRUE(client.SendRaw(serve::BuildPredictRequest(req)).ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    Result<std::string> raw = client.RecvRaw();
    ASSERT_TRUE(raw.ok()) << raw.status();
    serve::PredictResponse resp;
    ASSERT_TRUE(serve::ParsePredictResponse(raw.ValueOrDie(), &resp).ok());
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.id, i) << "response out of admission order";
  }
  server.Stop();
}

TEST_F(ServeServerTest, StatuszReportsPerWorkerStats) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(16, kDim, kClasses, 18);
  serve::ServerConfig config;
  config.http_port = 0;
  config.num_batch_workers = 3;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(conn.ValueOrDie().PredictRow(RowFeatures(data, i)).ok());
  }

  Result<serve::HttpResponse> got =
      serve::HttpGet("127.0.0.1", server.http_port(), "/statusz");
  ASSERT_TRUE(got.ok()) << got.status();
  JsonValue root;
  ASSERT_TRUE(JsonValue::Parse(got.ValueOrDie().body, &root).ok());
  const JsonValue* srv = root.Get("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_DOUBLE_EQ(srv->GetNumberOr("num_batch_workers", 0), 3.0);
  const JsonValue* workers = srv->Get("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_TRUE(workers->is_array());
  const std::vector<JsonValue>& rows = workers->AsArray();
  ASSERT_EQ(rows.size(), 3u);
  double total_batches = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i].GetNumberOr("id", -1),
                     static_cast<double>(i));
    EXPECT_TRUE(rows[i].Get("live")->AsBool()) << "worker " << i;
    // A worker cannot finalize more batches than quanta it ran.
    EXPECT_GE(rows[i].GetNumberOr("stages", 0),
              rows[i].GetNumberOr("batches", 0));
    total_batches += rows[i].GetNumberOr("batches", 0);
  }
  EXPECT_GE(total_batches, 8.0) << "8 un-coalesced requests were served";
  server.Stop();
}

// ---------------------------------------------------------------------------
// Serving resilience: hot reload, deadlines, load shedding (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// Same geometry as MakeModel, different weights — a plausible retrained
/// successor for hot-reload tests.
EnsembleModel MakeModelV2() {
  EnsembleModel m;
  m.AddMember(SmallMlp(44), 1.9);
  m.AddMember(SmallMlp(55), 1.1);
  m.AddMember(SmallMlp(66), 0.8);
  return m;
}

TEST_F(ServeServerTest, HotReloadSwapsGenerationWithoutDroppingConnections) {
  const EnsembleModel model = MakeModel();
  EnsembleModel v2 = MakeModelV2();
  const Dataset data = MakeBlobs(8, kDim, kClasses, 21);
  const std::vector<int> ref_v1 = model.PredictLabels(data);
  const std::vector<int> ref_v2 = v2.PredictLabels(data);

  serve::ServerConfig config;
  config.http_port = 0;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.generation(), 1u);

  // One connection spanning the swap: established before, still good after.
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::ServeClient& client = conn.ValueOrDie();

  Result<serve::PredictResponse> before =
      client.Predict(RequestForRows(data, 0, 1, /*id=*/1));
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(before.ValueOrDie().ok);
  EXPECT_EQ(before.ValueOrDie().generation, 1u);
  EXPECT_EQ(before.ValueOrDie().labels[0], ref_v1[0]);

  ASSERT_TRUE(
      server.Reload(std::make_shared<EnsembleModel>(std::move(v2)), "v2")
          .ok());
  EXPECT_EQ(server.generation(), 2u);

  // The same connection now serves generation 2, stamped into responses,
  // and its labels are the new model's.
  for (int64_t i = 0; i < 8; ++i) {
    Result<serve::PredictResponse> after =
        client.Predict(RequestForRows(data, i, 1, /*id=*/10 + i));
    ASSERT_TRUE(after.ok()) << after.status();
    const serve::PredictResponse& r = after.ValueOrDie();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.generation, 2u);
    EXPECT_EQ(r.labels[0], ref_v2[static_cast<size_t>(i)]) << "row " << i;
  }

  // /statusz carries the generation, the provenance, and the reload count.
  Result<serve::HttpResponse> got =
      serve::HttpGet("127.0.0.1", server.http_port(), "/statusz");
  ASSERT_TRUE(got.ok()) << got.status();
  JsonValue root;
  ASSERT_TRUE(JsonValue::Parse(got.ValueOrDie().body, &root).ok());
  const JsonValue* srv = root.Get("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_DOUBLE_EQ(srv->GetNumberOr("generation", 0), 2.0);
  EXPECT_DOUBLE_EQ(srv->GetNumberOr("reloads", -1), 1.0);
  EXPECT_EQ(srv->GetStringOr("model_source", ""), "v2");
  server.Stop();
}

TEST_F(ServeServerTest, ReloadRejectsBadCandidatesAndKeepsServing) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 22);
  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());

  // Wrong feature dim.
  {
    MlpConfig cfg;
    cfg.in_features = kDim + 2;
    cfg.hidden = {10};
    cfg.num_classes = kClasses;
    auto wrong = std::make_shared<EnsembleModel>();
    wrong->AddMember(std::make_unique<Mlp>(cfg, 1), 1.0);
    const Status s = server.Reload(wrong, "wrong-dim");
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  }
  // Wrong precision.
  {
    auto wrong = std::make_shared<EnsembleModel>(MakeModelV2());
    wrong->SetPrecision(Precision::kInt8);
    const Status s = server.Reload(wrong, "wrong-precision");
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  }
  // Null candidate.
  EXPECT_FALSE(server.Reload(nullptr, "null").ok());

  // Every rejection left generation 1 serving, on a fresh connection too.
  EXPECT_EQ(server.generation(), 1u);
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  Result<int> label = conn.ValueOrDie().PredictRow(RowFeatures(data, 0));
  ASSERT_TRUE(label.ok()) << label.status();
  EXPECT_EQ(label.ValueOrDie(), model.PredictLabels(data)[0]);
  server.Stop();
}

TEST_F(ServeServerTest, ReloadAcceptsSameArchitectureTextCnn) {
  // A TextCNN's first weight is its embedding table, so the fan-in derived
  // from it (embed_dim) is not the request width (seq_len). A retrained
  // successor of the same architecture must still be accepted.
  TextCnnConfig cfg;
  cfg.vocab_size = 50;
  cfg.embed_dim = 6;
  cfg.seq_len = 12;
  cfg.kernel_sizes = {2, 3};
  cfg.filters_per_size = 4;
  cfg.num_classes = 2;
  auto make = [&](uint64_t seed) {
    auto m = std::make_shared<EnsembleModel>();
    m->AddMember(std::make_unique<TextCnn>(cfg, seed), 1.5);
    m->AddMember(std::make_unique<TextCnn>(cfg, seed + 1), 0.9);
    return m;
  };
  const std::shared_ptr<EnsembleModel> first = make(1);
  const std::shared_ptr<EnsembleModel> second = make(7);
  Tensor tokens(Shape{4, cfg.seq_len});
  for (int64_t i = 0; i < tokens.num_elements(); ++i) {
    tokens.at(i) = static_cast<float>((i * 7 + 3) % cfg.vocab_size);
  }
  const Dataset data("tokens", tokens, std::vector<int>(4, 0),
                     cfg.num_classes);
  const std::vector<int> want = second->PredictLabels(data);

  serve::InferenceServer server(first.get(), cfg.seq_len, cfg.num_classes,
                                {});
  ASSERT_TRUE(server.Start().ok());
  const Status s = server.Reload(second, "textcnn-retrained");
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(server.generation(), 2u);

  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::PredictRequest req;
  req.id = 1;
  req.rows = 4;
  req.dim = cfg.seq_len;
  req.features.assign(tokens.data(), tokens.data() + tokens.num_elements());
  Result<serve::PredictResponse> resp = conn.ValueOrDie().Predict(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_TRUE(resp.ValueOrDie().ok) << resp.ValueOrDie().error;
  EXPECT_EQ(resp.ValueOrDie().generation, 2u);
  EXPECT_EQ(resp.ValueOrDie().labels, want);
  server.Stop();
}

TEST_F(ServeServerTest, ReloadFailpointsKeepTheOldGeneration) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 23);
  serve::ServerConfig config;
  config.reload_source = []() -> Result<serve::ReloadCandidate> {
    serve::ReloadCandidate c;
    c.model = std::make_shared<EnsembleModel>(MakeModelV2());
    c.source = "from-source";
    return c;
  };
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  // Read failure (artifact unreadable / corrupt): generation unchanged.
  ASSERT_TRUE(failpoint::SetSpec("serve.reload.read=error:1").ok());
  EXPECT_FALSE(server.ReloadFromSource().ok());
  EXPECT_EQ(server.generation(), 1u);
  // The error:1 spec is spent; the same trigger now succeeds.
  EXPECT_TRUE(server.ReloadFromSource().ok());
  EXPECT_EQ(server.generation(), 2u);
  failpoint::Clear();

  // Swap failure after validation: also no new generation.
  ASSERT_TRUE(failpoint::SetSpec("serve.reload.swap=error:1").ok());
  EXPECT_FALSE(server.ReloadFromSource().ok());
  EXPECT_EQ(server.generation(), 2u);
  failpoint::Clear();

  // Still serving throughout.
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  EXPECT_TRUE(conn.ValueOrDie().PredictRow(RowFeatures(data, 0)).ok());
  server.Stop();
}

TEST_F(ServeServerTest, ExpiredDeadlineIsShedBeforeExecution) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 24);
  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  serve::ServeClient& client = conn.ValueOrDie();

  // The serve.deadline delay sits right before the expiry check in batch
  // dispatch: a 1ms client deadline is deterministically past due by the
  // time the check runs, so the request must come back deadline_exceeded
  // without ever touching a member.
  ASSERT_TRUE(failpoint::SetSpec("serve.deadline=delay:30").ok());
  serve::PredictRequest req = RequestForRows(data, 0, 1, /*id=*/5);
  req.deadline_ms = 1;
  Result<serve::PredictResponse> resp = client.Predict(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp.ValueOrDie().ok);
  EXPECT_EQ(resp.ValueOrDie().code, "deadline_exceeded");
  EXPECT_EQ(resp.ValueOrDie().id, 5);
  failpoint::Clear();

  // Without the delay the same deadline is easily met.
  serve::PredictRequest fine = RequestForRows(data, 1, 1, /*id=*/6);
  fine.deadline_ms = 5000;
  Result<serve::PredictResponse> ok_resp = client.Predict(fine);
  ASSERT_TRUE(ok_resp.ok());
  EXPECT_TRUE(ok_resp.ValueOrDie().ok) << ok_resp.ValueOrDie().error;
  server.Stop();
}

TEST_F(ServeServerTest, ServerMaxRequestMsCapsClientlessDeadlines) {
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(4, kDim, kClasses, 25);
  serve::ServerConfig config;
  config.max_request_ms = 1;  // server-side cap, no client deadline needed
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());

  ASSERT_TRUE(failpoint::SetSpec("serve.deadline=delay:30").ok());
  Result<serve::PredictResponse> resp =
      conn.ValueOrDie().Predict(RequestForRows(data, 0, 1, /*id=*/7));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp.ValueOrDie().ok);
  EXPECT_EQ(resp.ValueOrDie().code, "deadline_exceeded");
  failpoint::Clear();
  server.Stop();
}

TEST_F(ServeServerTest, DeadConnectionDiscardsParkedFramesWithoutStalling) {
  // serve.write=error:1 makes the first response send fail: the ordered
  // writer must mark the connection dead, discard its parked out-of-order
  // frames instead of waiting for predecessors that will never flush, and
  // keep the rest of the server healthy.
  const EnsembleModel model = MakeModel();
  const Dataset data = MakeBlobs(16, kDim, kClasses, 26);
  serve::ServerConfig config;
  config.max_batch_rows = 1;  // one request per batch → parking is likely
  config.max_delay_ms = 0;
  config.num_batch_workers = 4;
  serve::InferenceServer server(&model, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  Counter* const dropped =
      MetricsRegistry::Global().GetCounter("serve.dropped_responses");
  const int64_t dropped_before = dropped->Value();

  Result<serve::ServeClient> doomed =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(failpoint::SetSpec("serve.write=error:1").ok());
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    const serve::PredictRequest req = RequestForRows(data, i, 1, i);
    ASSERT_TRUE(
        doomed.ValueOrDie().SendRaw(serve::BuildPredictRequest(req)).ok());
  }
  // The server killed the connection after the failed write; the client
  // eventually sees EOF/reset instead of responses.
  Result<std::string> raw = doomed.ValueOrDie().RecvRaw();
  while (raw.ok()) raw = doomed.ValueOrDie().RecvRaw();
  EXPECT_FALSE(raw.ok());
  failpoint::Clear();

  // Every undeliverable response was dropped (none parked forever) …
  // Workers finish all 12 batches; poll briefly for the last drops.
  for (int spin = 0;
       spin < 100 && dropped->Value() - dropped_before < kRequests; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(dropped->Value() - dropped_before, kRequests);

  // … and a fresh connection is served normally: no worker is wedged on
  // the dead connection's write lock.
  Result<serve::ServeClient> healthy =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(healthy.ok());
  Result<int> label = healthy.ValueOrDie().PredictRow(RowFeatures(data, 0));
  ASSERT_TRUE(label.ok()) << label.status();
  server.Stop();  // a parked-frame leak or wedged worker would hang here
}

TEST_F(ServeServerTest, CrashAtBatchFailpointThenFreshServerResumes) {
  const Dataset data = MakeBlobs(4, kDim, kClasses, 10);
  // Child: arm the serve.batch crash site, stand up a server, send one
  // request. The worker thread hits the failpoint and kills the process
  // with the crash exit code mid-batch — as close to `kill -9` during
  // inference as a test gets.
  EXPECT_EXIT(
      {
        (void)failpoint::SetSpec("serve.batch=crash:1");
        const EnsembleModel model = MakeModel();
        serve::InferenceServer server(&model, kDim, kClasses, {});
        if (!server.Start().ok()) _exit(7);
        Result<serve::ServeClient> conn =
            serve::ServeClient::Connect("127.0.0.1", server.port());
        if (!conn.ok()) _exit(7);
        std::vector<float> row(kDim, 0.25f);
        (void)conn.ValueOrDie().PredictRow(row);
        _exit(7);  // the failpoint never fired
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "");

  // Parent: a fresh server on the same model picks service back up —
  // nothing about the crash leaves persistent state behind.
  const EnsembleModel model = MakeModel();
  serve::InferenceServer server(&model, kDim, kClasses, {});
  ASSERT_TRUE(server.Start().ok());
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  Result<int> label = conn.ValueOrDie().PredictRow(RowFeatures(data, 0));
  ASSERT_TRUE(label.ok()) << label.status();
  EXPECT_EQ(label.ValueOrDie(), model.PredictLabels(data)[0]);
  server.Stop();
}

}  // namespace
}  // namespace edde
