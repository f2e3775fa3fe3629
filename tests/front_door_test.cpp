// FrontDoor: the one request table (net::FrameServer::dispatch) behind the
// three front doors — EngineServer, TenantServer, and a ClusterCoordinator
// over two in-process EngineServer workers.  The same script goes over
// version-1, -2 and -3 frames, and every (front door, MsgType) pair must
// answer its pinned status: operations a front door lacks are a typed
// kUnsupported, a non-empty stream id on a single-tenant door is a typed
// kUnknownTenant, and neither drops the connection; an undecodable batch is
// kMalformed and does.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "skc/cluster/coordinator.h"
#include "skc/engine/engine.h"
#include "skc/net/frame.h"
#include "skc/net/server.h"
#include "skc/net/socket.h"
#include "skc/obs/flight_recorder.h"
#include "skc/tenant/registry.h"
#include "skc/tenant/server.h"

namespace skc {
namespace {

using net::MsgType;
using net::Status;

constexpr int kDim = 2;
constexpr int kK = 2;
constexpr int kLogDelta = 9;

enum class Door { kEngine, kTenant, kCoordinator };

CoresetParams door_params() {
  return CoresetParams::practical(kK, LrOrder{2.0}, 0.3, 0.3);
}

EngineOptions door_engine_options() {
  EngineOptions opt;
  opt.num_shards = 1;
  opt.worker_threads = 1;
  opt.streaming.log_delta = kLogDelta;
  opt.streaming.max_points = 1024;
  opt.streaming.exact_storing = true;
  opt.streaming.distinct_budget = 1 << 20;
  opt.streaming.prune_interval = 0;
  return opt;
}

/// One front door, started on an ephemeral loopback port.  Members are
/// declared so that servers (and the coordinator) are destroyed before the
/// state they serve.
struct FrontDoorHarness {
  std::unique_ptr<ClusteringEngine> engine;
  std::unique_ptr<net::EngineServer> engine_server;

  std::unique_ptr<tenant::TenantRegistry> registry;
  std::unique_ptr<tenant::TenantServer> tenant_server;

  std::vector<std::unique_ptr<ClusteringEngine>> worker_engines;
  std::vector<std::unique_ptr<net::EngineServer>> workers;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;

  net::FrameServer* door = nullptr;

  explicit FrontDoorHarness(Door which) {
    std::string error;
    switch (which) {
      case Door::kEngine:
        engine = std::make_unique<ClusteringEngine>(kDim, door_params(),
                                                    door_engine_options());
        engine_server =
            std::make_unique<net::EngineServer>(*engine, net::ServerOptions{});
        door = engine_server.get();
        break;
      case Door::kTenant: {
        tenant::TenantRegistryOptions o;
        o.dim = kDim;
        o.params = door_params();
        o.engine = door_engine_options();
        o.pool_threads = 0;
        registry = std::make_unique<tenant::TenantRegistry>(o);
        tenant_server = std::make_unique<tenant::TenantServer>(
            *registry, net::ServerOptions{});
        door = tenant_server.get();
        break;
      }
      case Door::kCoordinator: {
        cluster::CoordinatorOptions copts;
        copts.dim = kDim;
        copts.params = door_params();
        copts.streaming = door_engine_options().streaming;
        for (int w = 0; w < 2; ++w) {
          worker_engines.push_back(std::make_unique<ClusteringEngine>(
              kDim, door_params(), door_engine_options()));
          workers.push_back(std::make_unique<net::EngineServer>(
              *worker_engines.back(), net::ServerOptions{}));
          EXPECT_TRUE(workers.back()->start(error)) << error;
          copts.workers.push_back({"127.0.0.1", workers.back()->port()});
        }
        coordinator = std::make_unique<cluster::ClusterCoordinator>(copts);
        EXPECT_TRUE(coordinator->connect(error)) << error;
        door = coordinator.get();
        break;
      }
    }
    started = door->start(error);
    EXPECT_TRUE(started) << error;
  }

  bool started = false;
};

/// A raw loopback connection that speaks one chosen frame version.
class RawConn {
 public:
  RawConn(std::uint16_t port, std::uint8_t version) : version_(version) {
    std::string error;
    sock_ = net::connect_to("127.0.0.1", port, 2000, error);
    EXPECT_TRUE(sock_.valid()) << error;
  }

  /// Sends one request and returns the reply status (payload in `*payload`).
  Status call(MsgType type, std::string_view body,
              std::string_view tenant = {}, std::string* payload = nullptr) {
    std::string frame;
    if (version_ == net::kWireVersion) {
      EXPECT_TRUE(tenant.empty()) << "version-1 frames carry no tenant";
      frame = net::encode_frame(type, Status::kOk, body);
    } else if (version_ == net::kWireVersionTenant) {
      frame = net::encode_tenant_frame(type, Status::kOk, tenant, body);
    } else {
      frame = net::encode_traced_frame(type, Status::kOk,
                                       obs::TraceContext{0x5eed, 0x77}, tenant,
                                       body);
    }
    EXPECT_EQ(net::send_exact(sock_, frame.data(), frame.size(), 2000),
              net::IoResult::kOk);
    char header_buf[net::kFrameHeaderBytes];
    if (net::recv_exact(sock_, header_buf, sizeof(header_buf), 10'000) !=
        net::IoResult::kOk) {
      ADD_FAILURE() << "no reply to message type " << static_cast<int>(type);
      return Status::kMalformed;
    }
    net::FrameHeader h;
    EXPECT_EQ(net::decode_header(
                  std::string_view(header_buf, sizeof(header_buf)), h),
              Status::kOk);
    EXPECT_EQ(h.type, type);
    std::string body_in(h.payload_bytes, '\0');
    if (h.payload_bytes > 0) {
      EXPECT_EQ(net::recv_exact(sock_, body_in.data(), body_in.size(), 10'000),
                net::IoResult::kOk);
    }
    if (payload != nullptr) *payload = std::move(body_in);
    return h.status;
  }

  /// True once the server has closed its end.
  bool closed_by_peer() {
    char byte = 0;
    return net::recv_exact(sock_, &byte, 1, 5000) == net::IoResult::kClosed;
  }

 private:
  net::Socket sock_;
  std::uint8_t version_;
};

std::string batch_body(int dim, std::vector<Coord> coords) {
  net::PointBatch b;
  b.dim = dim;
  b.coords = std::move(coords);
  return b.encode();
}

bool is_worker_rpc(MsgType type) {
  return type == MsgType::kWorkerHello || type == MsgType::kHeartbeat ||
         type == MsgType::kMergeSketch || type == MsgType::kFetchCoreset ||
         type == MsgType::kShipSnapshot;
}

/// The pinned reply status of a well-formed default-tenant request.
Status expected_status(Door door, MsgType type) {
  if (is_worker_rpc(type)) {
    if (door != Door::kEngine) return Status::kUnsupported;
    // The script ships a blob that is no engine state.
    return type == MsgType::kShipSnapshot ? Status::kEngineError : Status::kOk;
  }
  if (type == MsgType::kTenantStats) {
    return door == Door::kTenant ? Status::kOk : Status::kUnsupported;
  }
  return Status::kOk;
}

/// A well-formed request body for every message type but SHUTDOWN.
std::string request_body(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "probe";
    case MsgType::kInsertBatch:
      return batch_body(kDim, {5, 5, 9, 9, 400, 400, 410, 401});
    case MsgType::kDeleteBatch:
      return batch_body(kDim, {9, 9});
    case MsgType::kQuery: {
      net::QueryRequest q;
      q.k = kK;
      return q.encode();
    }
    case MsgType::kCheckpoint: {
      net::CheckpointRequest c;
      c.path = std::string(::testing::TempDir()) + "front_door.ckpt";
      return c.encode();
    }
    case MsgType::kWorkerHello: {
      net::WorkerHello hello;
      hello.dim = kDim;
      hello.k = kK;
      hello.log_delta = kLogDelta;
      hello.fingerprint = 1;  // refused in the reply body, not the status
      return hello.encode();
    }
    case MsgType::kShipSnapshot: {
      net::SketchSnapshot snap;
      snap.blob = "not an engine state";
      return snap.encode();
    }
    default:
      return {};
  }
}

std::string door_name(Door door) {
  switch (door) {
    case Door::kEngine:
      return "Engine";
    case Door::kTenant:
      return "Tenant";
    case Door::kCoordinator:
      return "Coordinator";
  }
  return "Unknown";
}

const std::uint8_t kVersions[] = {net::kWireVersion, net::kWireVersionTenant,
                                  net::kWireVersionTraced};

class FrontDoor : public ::testing::TestWithParam<Door> {};

TEST_P(FrontDoor, EveryMessageTypeAnswersItsPinnedStatusOnEveryVersion) {
  const Door door = GetParam();
  FrontDoorHarness h(door);
  ASSERT_TRUE(h.started);
  for (const std::uint8_t version : kVersions) {
    SCOPED_TRACE("frame version " + std::to_string(version));
    RawConn conn(h.door->port(), version);
    for (int t = 0; t < net::kNumMsgTypes; ++t) {
      const auto type = static_cast<MsgType>(t);
      if (type == MsgType::kShutdown) continue;  // ends the script; below
      SCOPED_TRACE("message type " + std::to_string(t));
      std::string payload;
      const std::string body = request_body(type);
      EXPECT_EQ(conn.call(type, body, {}, &payload),
                expected_status(door, type));
      if (type == MsgType::kPing) {
        EXPECT_EQ(payload, body);  // echo
      }
    }
  }
  RawConn last(h.door->port(), net::kWireVersion);
  EXPECT_EQ(last.call(MsgType::kShutdown, {}), Status::kOk);
  h.door->wait();
  EXPECT_FALSE(h.door->running());
}

TEST_P(FrontDoor, BadPointsAreEngineErrorsAndKeepTheConnection) {
  FrontDoorHarness h(GetParam());
  ASSERT_TRUE(h.started);
  for (const std::uint8_t version : kVersions) {
    SCOPED_TRACE("frame version " + std::to_string(version));
    RawConn conn(h.door->port(), version);
    for (const MsgType type : {MsgType::kInsertBatch, MsgType::kDeleteBatch}) {
      EXPECT_EQ(conn.call(type, batch_body(kDim + 1, {5, 5, 5})),
                Status::kEngineError);
      EXPECT_EQ(conn.call(type, batch_body(kDim, {0, 5})),
                Status::kEngineError);
      EXPECT_EQ(conn.call(type, batch_body(kDim, {5, (1 << kLogDelta) + 1})),
                Status::kEngineError);
    }
    EXPECT_EQ(conn.call(MsgType::kInsertBatch, request_body(MsgType::kInsertBatch)),
              Status::kOk);
  }
}

TEST_P(FrontDoor, UndecodableBatchIsMalformedAndClosesTheConnection) {
  FrontDoorHarness h(GetParam());
  ASSERT_TRUE(h.started);
  for (const std::uint8_t version : kVersions) {
    for (const MsgType type : {MsgType::kInsertBatch, MsgType::kDeleteBatch}) {
      SCOPED_TRACE("frame version " + std::to_string(version));
      RawConn conn(h.door->port(), version);
      EXPECT_EQ(conn.call(type, "xyz"), Status::kMalformed);
      EXPECT_TRUE(conn.closed_by_peer());
    }
  }
  // The server itself keeps serving.
  RawConn fresh(h.door->port(), net::kWireVersion);
  EXPECT_EQ(fresh.call(MsgType::kPing, "still-up"), Status::kOk);
}

TEST_P(FrontDoor, NonDefaultTenantIsRefusedOnlyBySingleTenantDoors) {
  const Door door = GetParam();
  FrontDoorHarness h(door);
  ASSERT_TRUE(h.started);
  const Status want =
      door == Door::kTenant ? Status::kOk : Status::kUnknownTenant;
  for (const std::uint8_t version :
       {net::kWireVersionTenant, net::kWireVersionTraced}) {
    SCOPED_TRACE("frame version " + std::to_string(version));
    RawConn conn(h.door->port(), version);
    for (const MsgType type : {MsgType::kPing, MsgType::kInsertBatch,
                               MsgType::kQuery, MsgType::kTenantStats}) {
      EXPECT_EQ(conn.call(type, request_body(type), "t1"), want);
    }
    // Typed, never a drop: the same connection still answers.
    EXPECT_EQ(conn.call(MsgType::kPing, "probe"), Status::kOk);
  }
}

// The REPL calls the query hook directly: it must reach the flight recorder
// exactly once per query on every front door (the coordinator's query()
// arms its own capture; the hook must not add a second).
TEST_P(FrontDoor, QueryHookCapturesEachQueryOnce) {
  FrontDoorHarness h(GetParam());
  ASSERT_TRUE(h.started);
  std::string diag;
  const std::vector<Coord> pts = {5, 5, 400, 400, 9, 9};
  Stream events;
  for (std::size_t i = 0; i < pts.size(); i += kDim) {
    events.push_back({StreamOp::kInsert, {pts[i], pts[i + 1]}});
  }
  ASSERT_EQ(h.door->handle_ingest("", events, diag), Status::kOk) << diag;
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  const double threshold = recorder.threshold_millis();
  recorder.set_threshold_millis(0);
  const std::int64_t before = recorder.total_captured();
  EngineQuery q;
  q.k = kK;
  EngineQueryResult res;
  EXPECT_EQ(h.door->handle_query("", q, res, diag), Status::kOk) << diag;
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.net_points, 3);
  EXPECT_EQ(recorder.total_captured(), before + 1);
  recorder.set_threshold_millis(threshold);
}

INSTANTIATE_TEST_SUITE_P(, FrontDoor,
                         ::testing::Values(Door::kEngine, Door::kTenant,
                                           Door::kCoordinator),
                         [](const ::testing::TestParamInfo<Door>& param) {
                           return door_name(param.param);
                         });

}  // namespace
}  // namespace skc
