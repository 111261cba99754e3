/**
 * @file
 * End-to-end PlanService tests over the in-process loopback transport
 * (service/plan_service.h): planning with the result cache, validate,
 * stats, admission control, deadlines, graceful shutdown, and a
 * concurrent mixed workload that doubles as a TSan target.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/load_gen.h"
#include "service/plan_service.h"
#include "service/protocol.h"
#include "util/json.h"

namespace {

using namespace accpar;
using service::PlanService;
using service::ServiceConfig;

std::string
planLine(int id, std::int64_t batch = 32)
{
    util::Json doc = util::Json::Object{};
    doc["kind"] = "plan";
    doc["id"] = id;
    doc["model"] = "lenet";
    doc["batch"] = batch;
    doc["array"] = "tpu-v3:2";
    return doc.dump();
}

util::Json
inlineModelDoc()
{
    util::Json input = util::Json::Object{};
    input["batch"] = 8;
    input["channels"] = 16;
    input["height"] = 1;
    input["width"] = 1;
    util::Json fc = util::Json::Object{};
    fc["op"] = "fc";
    fc["name"] = "fc1";
    fc["out"] = 10;
    util::Json layers = util::Json::Array{};
    layers.push(std::move(fc));
    util::Json doc = util::Json::Object{};
    doc["name"] = "service-mlp";
    doc["input"] = std::move(input);
    doc["layers"] = std::move(layers);
    return doc;
}

/** An FC bridge (a->b, a->c, b+c->d, c->e, d->f, e+f->g): plannable
 *  exactly, but not chain-shaped, so it has no certificate (AG007). */
constexpr char kBridgeModel[] = R"({
  "name": "bridge",
  "input": {"batch": 8, "channels": 4, "height": 1, "width": 1},
  "layers": [
    {"op": "fc", "name": "a", "out": 4},
    {"op": "fc", "name": "b", "out": 4, "input": "a"},
    {"op": "fc", "name": "c", "out": 4, "input": "a"},
    {"op": "add", "name": "d", "inputs": ["b", "c"]},
    {"op": "fc", "name": "e", "out": 4, "input": "c"},
    {"op": "fc", "name": "f", "out": 4, "input": "d"},
    {"op": "add", "name": "g", "inputs": ["e", "f"]}
  ]
})";

util::Json
roundTrip(PlanService &plan_service, const std::string &line)
{
    return util::Json::parse(plan_service.handleLine(line));
}

std::string
errorCode(const util::Json &response)
{
    return response.at("error").at("code").asString();
}

TEST(PlanServiceTest, PlanColdThenWarmIsByteIdentical)
{
    PlanService plan_service(ServiceConfig{});
    const util::Json cold = roundTrip(plan_service, planLine(1));
    ASSERT_TRUE(cold.at("ok").asBool()) << cold.dump();
    EXPECT_EQ(cold.at("id").asInt(), 1);
    EXPECT_FALSE(cold.at("cached").asBool());
    EXPECT_EQ(cold.at("model").asString(), "lenet");
    EXPECT_GT(cold.at("root_cost").asNumber(), 0.0);

    // Different correlation id, identical work: must hit the cache and
    // replay the byte-identical plan payload.
    const util::Json warm = roundTrip(plan_service, planLine(2));
    ASSERT_TRUE(warm.at("ok").asBool()) << warm.dump();
    EXPECT_EQ(warm.at("id").asInt(), 2);
    EXPECT_TRUE(warm.at("cached").asBool());
    EXPECT_EQ(warm.at("plan").dump(), cold.at("plan").dump());
    EXPECT_EQ(warm.at("root_cost").asNumber(),
              cold.at("root_cost").asNumber());

    // Every plan response of a chain-shaped model — cold or cached —
    // carries the certificate fingerprint of the solve that produced
    // it.
    const std::string fingerprint =
        cold.at("certificate_fingerprint").asString();
    EXPECT_EQ(fingerprint.size(), 16u);
    EXPECT_EQ(fingerprint.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(warm.at("certificate_fingerprint").asString(),
              fingerprint);

    EXPECT_EQ(plan_service.cache().stats().hits, 1u);
    EXPECT_EQ(plan_service.cache().stats().misses, 1u);

    // A different batch is different work: cold again.
    const util::Json other = roundTrip(plan_service, planLine(3, 64));
    ASSERT_TRUE(other.at("ok").asBool());
    EXPECT_FALSE(other.at("cached").asBool());
    EXPECT_NE(other.at("plan").dump(), cold.at("plan").dump());
}

TEST(PlanServiceTest, ZeroCacheEntriesDisablesMemoization)
{
    ServiceConfig config;
    config.cacheEntries = 0;
    PlanService plan_service(config);
    EXPECT_FALSE(roundTrip(plan_service, planLine(1))
                     .at("cached")
                     .asBool());
    EXPECT_FALSE(roundTrip(plan_service, planLine(2))
                     .at("cached")
                     .asBool());
}

TEST(PlanServiceTest, NonChainInlineModelPlansWithoutCertificate)
{
    PlanService plan_service(ServiceConfig{});
    util::Json doc = util::Json::Object{};
    doc["kind"] = "plan";
    doc["id"] = 1;
    doc["model"] = util::Json::parse(kBridgeModel);
    doc["array"] = "tpu-v2:2+tpu-v3:2";

    const util::Json cold = roundTrip(plan_service, doc.dump());
    ASSERT_TRUE(cold.at("ok").asBool()) << cold.dump();
    EXPECT_FALSE(cold.at("cached").asBool());
    EXPECT_TRUE(cold.at("certificate_fingerprint").isNull());

    const util::Json warm = roundTrip(plan_service, doc.dump());
    ASSERT_TRUE(warm.at("ok").asBool()) << warm.dump();
    EXPECT_TRUE(warm.at("cached").asBool());
    EXPECT_EQ(warm.at("plan").dump(), cold.at("plan").dump());
    EXPECT_TRUE(warm.at("certificate_fingerprint").isNull());

    doc["kind"] = "search";
    doc["budget_iters"] = 8;
    const util::Json searched = roundTrip(plan_service, doc.dump());
    ASSERT_TRUE(searched.at("ok").asBool()) << searched.dump();
    EXPECT_TRUE(searched.at("certificate_fingerprint").isNull());
    EXPECT_LE(searched.at("best_cost").asNumber(),
              searched.at("baseline_cost").asNumber());

    // Chain-shaped models keep their certificates on the same service.
    util::Json chain = util::Json::Object{};
    chain["kind"] = "plan";
    chain["id"] = 2;
    chain["model"] = "alexnet";
    chain["batch"] = 32;
    chain["array"] = "tpu-v2:2+tpu-v3:2";
    const util::Json alexnet = roundTrip(plan_service, chain.dump());
    ASSERT_TRUE(alexnet.at("ok").asBool()) << alexnet.dump();
    EXPECT_EQ(alexnet.at("certificate_fingerprint").asString().size(),
              16u);
}

TEST(PlanServiceTest, UnknownModelIsASRV04)
{
    PlanService plan_service(ServiceConfig{});
    const util::Json response = roundTrip(
        plan_service,
        R"({"kind":"plan","id":1,"model":"skynet","batch":32})");
    ASSERT_FALSE(response.at("ok").asBool());
    EXPECT_EQ(errorCode(response), service::kErrBadField);
    EXPECT_EQ(plan_service.metrics().snapshot().errors, 1u);
}

TEST(PlanServiceTest, ProtocolErrorCountsAndAnswers)
{
    PlanService plan_service(ServiceConfig{});
    const util::Json response =
        roundTrip(plan_service, "this is not json");
    ASSERT_FALSE(response.at("ok").asBool());
    EXPECT_EQ(errorCode(response), service::kErrParse);
    const auto snapshot = plan_service.metrics().snapshot();
    EXPECT_EQ(snapshot.protocolErrors, 1u);
    EXPECT_EQ(snapshot.errors, 1u);
}

TEST(PlanServiceTest, ValidateInlineModel)
{
    PlanService plan_service(ServiceConfig{});
    util::Json doc = util::Json::Object{};
    doc["kind"] = "validate";
    doc["id"] = 9;
    doc["model"] = inlineModelDoc();
    const util::Json response = roundTrip(plan_service, doc.dump());
    ASSERT_TRUE(response.at("ok").asBool()) << response.dump();
    EXPECT_EQ(response.at("kind").asString(), "validate");
    EXPECT_TRUE(response.at("valid").asBool());
    EXPECT_TRUE(response.contains("diagnostics"));
}

TEST(PlanServiceTest, StatsReportsCountersAndCache)
{
    PlanService plan_service(ServiceConfig{});
    roundTrip(plan_service, planLine(1));
    roundTrip(plan_service, planLine(2));
    const util::Json response =
        roundTrip(plan_service, R"({"kind":"stats","id":"s"})");
    ASSERT_TRUE(response.at("ok").asBool());
    const util::Json &metrics = response.at("metrics");
    EXPECT_EQ(metrics.at("requests").at("total").asInt(), 3);
    EXPECT_EQ(metrics.at("requests").at("plan").asInt(), 2);
    EXPECT_EQ(response.at("result_cache").at("hits").asInt(), 1);
    EXPECT_EQ(response.at("result_cache").at("misses").asInt(), 1);
    EXPECT_EQ(response.at("workers").asInt(), 2);
    EXPECT_FALSE(response.at("draining").asBool());
}

TEST(PlanServiceTest, FullQueueRejectsWithASRV05)
{
    ServiceConfig config;
    config.maxQueue = 0; // every queued request is over budget
    PlanService plan_service(config);
    const util::Json response = roundTrip(plan_service, planLine(1));
    ASSERT_FALSE(response.at("ok").asBool());
    EXPECT_EQ(errorCode(response), service::kErrQueueFull);
    EXPECT_EQ(plan_service.metrics().snapshot().queueRejected, 1u);
}

TEST(PlanServiceTest, ExpiredDeadlineIsASRV06)
{
    ServiceConfig config;
    config.workers = 1;
    PlanService plan_service(config);
    // Occupy the only worker with a cold solve so the tiny-deadline
    // request must wait in the queue past its deadline.
    std::thread blocker([&plan_service] {
        plan_service.handleLine(planLine(1, 256));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const util::Json response = roundTrip(
        plan_service,
        R"({"kind":"plan","id":2,"model":"lenet","batch":32,)"
        R"("array":"tpu-v3:2","deadline_ms":0.000001})");
    blocker.join();
    ASSERT_FALSE(response.at("ok").asBool());
    EXPECT_EQ(errorCode(response), service::kErrDeadline);
    EXPECT_EQ(plan_service.metrics().snapshot().deadlineExpired, 1u);
}

TEST(PlanServiceTest, ShutdownDrainsAndRejectsNewWork)
{
    PlanService plan_service(ServiceConfig{});
    roundTrip(plan_service, planLine(1));
    const util::Json response =
        roundTrip(plan_service, R"({"kind":"shutdown","id":"bye"})");
    ASSERT_TRUE(response.at("ok").asBool());
    EXPECT_TRUE(plan_service.shutdownRequested());

    const util::Json rejected = roundTrip(plan_service, planLine(2));
    ASSERT_FALSE(rejected.at("ok").asBool());
    EXPECT_EQ(errorCode(rejected), service::kErrShuttingDown);

    // stats stays answerable while draining.
    EXPECT_TRUE(roundTrip(plan_service, R"({"kind":"stats"})")
                    .at("ok")
                    .asBool());
    plan_service.shutdown(); // idempotent
}

TEST(PlanServiceTest, ConcurrentMixedWorkloadIsSafe)
{
    ServiceConfig config;
    config.workers = 4;
    PlanService plan_service(config);

    util::Json validate_doc = util::Json::Object{};
    validate_doc["kind"] = "validate";
    validate_doc["model"] = inlineModelDoc();
    const std::string validate_line = validate_doc.dump();

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 12; ++i) {
                std::string line;
                switch (i % 3) {
                  case 0:
                    line = planLine(t * 100 + i, 32);
                    break;
                  case 1:
                    line = planLine(t * 100 + i, 48);
                    break;
                  default:
                    line = validate_line;
                    break;
                }
                const util::Json response =
                    util::Json::parse(plan_service.handleLine(line));
                if (!response.at("ok").asBool())
                    ++failures;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0);
    const auto snapshot = plan_service.metrics().snapshot();
    EXPECT_EQ(snapshot.requestsTotal, 96u);
    EXPECT_EQ(snapshot.errors, 0u);
    // Two distinct plan requests across 64 plan calls: at most two
    // solves miss per... exactly 2 keys, so >= 62 hits.
    const auto cache_stats = plan_service.cache().stats();
    EXPECT_GE(cache_stats.hits, 1u);
    EXPECT_LE(cache_stats.entries, 2u);
}

TEST(LoadGenTest, LoopbackRunCountsHitsAndShutdown)
{
    ServiceConfig config;
    config.workers = 2;
    PlanService plan_service(config);

    service::LoadGenConfig load;
    load.requests = 40;
    load.concurrency = 4;
    load.mix = service::parseLoadMix("plan,validate");
    load.model = "lenet";
    load.batch = 32;
    load.array = "tpu-v3:2";
    load.shutdownAfter = true;
    const service::LoadGenReport report =
        service::runLoadGen(load, &plan_service);

    EXPECT_EQ(report.sent, 40);
    EXPECT_EQ(report.ok, 40);
    EXPECT_EQ(report.errors, 0);
    EXPECT_GT(report.cacheHits, 0);
    EXPECT_GT(report.requestsPerSecond, 0.0);
    EXPECT_LE(report.p50, report.p99);
    EXPECT_TRUE(plan_service.shutdownRequested());

    const std::string text = service::formatLoadReport(report);
    EXPECT_NE(text.find("errors:"), std::string::npos);
    EXPECT_NE(text.find("cache hits:"), std::string::npos);
}

TEST(LoadGenTest, RejectsBadMix)
{
    EXPECT_THROW(service::parseLoadMix("plan,frobnicate"),
                 std::exception);
    EXPECT_THROW(service::parseLoadMix(""), std::exception);
}

} // namespace
