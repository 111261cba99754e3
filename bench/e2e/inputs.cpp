#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/plan_io.h"
#include "core/planner.h"
#include "graph/dot_export.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/model_io.h"
#include "util/error.h"
#include "util/json.h"

namespace accpar::bench {

namespace {

/** Fisher-Yates with the repo's deterministic generator. */
template <typename T>
void
shuffle(std::vector<T> &items, util::Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(items[i - 1], items[j]);
    }
}

template <typename T>
const T &
pick(const std::vector<T> &items, util::Rng &rng)
{
    return items[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(items.size()) - 1))];
}

PlanJob
catalogJob(int stratum, const std::string &model,
           const std::vector<std::pair<std::string, std::string>> &params,
           const std::string &array)
{
    PlanJob job;
    job.stratum = stratum;
    job.model = model;
    job.array = array;
    for (const auto &[key, value] : params)
        job.params.set(key, value);
    return job;
}

/** Identity of a job: model or DAG, build parameters, array, search
 *  seed. */
std::string
jobKey(const PlanJob &job)
{
    std::string key = job.dot ? "dag" + std::to_string(job.stratum)
                              : job.model;
    for (const auto &[name, value] : job.params.values())
        key += ' ' + name + '=' + value;
    key += " @ " + job.array;
    if (job.budgetIters > 0)
        key += " search seed=" + std::to_string(job.searchSeed);
    return key;
}

/**
 * plan-cold: eleven chain-mode models (eight CNNs, three transformer
 * stacks) on five arrays from 8 to 256 boards, so request costs spread
 * evenly over three decades. CNN batches are drawn per round from
 * 128/256/512; batch barely moves planning time.
 */
std::vector<PlanJob>
planColdStrata()
{
    const std::vector<std::pair<std::string,
                                std::vector<std::pair<std::string,
                                                      std::string>>>>
        models = {{"alexnet", {}},
                  {"vgg11", {}},
                  {"vgg16", {}},
                  {"vgg19", {}},
                  {"resnet18", {}},
                  {"resnet34", {}},
                  {"resnet50", {}},
                  {"googlenet", {}},
                  {"bert-base", {{"batch", "8"}, {"depth", "2"}}},
                  {"bert-base", {{"batch", "8"}, {"depth", "4"}}},
                  {"gpt-decoder", {{"batch", "8"}, {"depth", "2"}}}};
    std::vector<PlanJob> strata;
    for (const char *array : {"tpu-v2:4+tpu-v3:4", "tpu-v2:8+tpu-v3:8",
                              "tpu-v2:16+tpu-v3:16", "homo", "hetero"})
        for (const auto &[model, params] : models)
            strata.push_back(catalogJob(static_cast<int>(strata.size()),
                                        model, params, array));
    return strata;
}

graph::ConvAttrs
conv(std::int64_t out, std::int64_t kernel)
{
    const std::int64_t pad = kernel / 2;
    return graph::ConvAttrs{out, kernel, kernel, 1, 1, pad, pad};
}

/**
 * Appends one single-entry, single-exit block after @p x and returns
 * its exit. 'R' residual (3 condensed nodes) and 'C' two-branch concat
 * (4) are series-parallel; 'B' is the Wheatstone bridge (7) and '2'/'3'
 * cross-rung ladders (6/8): non-series-parallel regions of 5, 4 and 6
 * internal nodes, all within core::kResidualExactLimit.
 */
graph::LayerId
addBlock(graph::Graph &g, char kind, const std::string &p,
         graph::LayerId x, std::int64_t width)
{
    switch (kind) {
      case 'R': {
        const auto a = g.addConv(p + "a", x, conv(width, 3));
        const auto b = g.addConv(p + "b", a, conv(width, 3));
        return g.addAdd(p + "add", b, x);
      }
      case 'C': {
        const auto left = g.addConv(p + "l", x, conv(width / 2, 1));
        const auto reduce = g.addConv(p + "r1", x, conv(width / 2, 1));
        const auto right = g.addConv(p + "r3", reduce, conv(width / 2, 3));
        const std::vector<graph::LayerId> parts = {left, right};
        return g.addConcat(p + "cat", parts);
      }
      case 'B': {
        const auto a = g.addConv(p + "a", x, conv(width, 3));
        const auto b = g.addConv(p + "b", a, conv(width, 3));
        const auto c = g.addConv(p + "c", a, conv(width, 3));
        const auto d = g.addAdd(p + "d", b, c);
        const auto e = g.addConv(p + "e", c, conv(width, 3));
        const auto f = g.addConv(p + "f", d, conv(width, 3));
        return g.addAdd(p + "g", e, f);
      }
      default: {
        const int rungs = kind - '0';
        const auto a = g.addConv(p + "a", x, conv(width, 3));
        auto u = g.addConv(p + "u1", a, conv(width, 3));
        auto v = g.addAdd(p + "v1", a, u);
        for (int i = 2; i <= rungs; ++i) {
            const auto next = g.addConv(p + "u" + std::to_string(i), u,
                                        conv(width, 3));
            v = g.addAdd(p + "v" + std::to_string(i), v, next);
            u = next;
        }
        return g.addAdd(p + "t", u, v);
      }
    }
}

constexpr std::size_t kDagLayouts = 25;

/** Block layout @p index of the plan-dag models: 3 to 11 blocks, every
 *  fourth one (the first included) not series-parallel, so no layout
 *  has a chain decomposition. */
std::string
dagLayout(std::size_t index)
{
    const std::size_t blocks = 3 + index / 3;
    std::string layout;
    for (std::size_t i = 0; i < blocks; ++i)
        layout += i % 4 == 0 ? "B23"[(index + i / 4) % 3]
                             : (i % 2 == 1 ? 'R' : 'C');
    return layout;
}

/** One plan-dag model: layout @p index's blocks in a seeded order, with
 *  seeded width and batch, downsampled twice along the way. */
graph::Graph
dagModel(std::size_t index, util::Rng &rng)
{
    const std::string layout = dagLayout(index);
    std::vector<char> order(layout.begin(), layout.end());
    shuffle(order, rng);
    const std::int64_t width =
        pick(std::vector<std::int64_t>{32, 48, 64, 96}, rng);
    const std::int64_t batch =
        pick(std::vector<std::int64_t>{32, 64, 128}, rng);

    graph::Graph g("dag" + std::to_string(index));
    const auto in =
        g.addInput("data", graph::TensorShape(batch, 3, 32, 32));
    auto x = g.addConv("stem", in, conv(width, 3));
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0 && (i * 3) % order.size() < 3)
            x = g.addMaxPool("pool" + std::to_string(i), x,
                             graph::PoolAttrs{2, 2, 2, 2, 0, 0});
        x = addBlock(g, order[i], "b" + std::to_string(i) + "_", x,
                     width);
    }
    x = g.addGlobalAvgPool("gap", x);
    x = g.addFlatten("flatten", x);
    g.addFullyConnected("fc", x, 10);
    g.validate();
    return g;
}

/** plan-dag: the 25 layouts as DOT text, alternately on a 16-board and
 *  a 4-board mixed array; all of them plan in SP mode. */
std::vector<PlanJob>
planDagStrata(std::uint64_t seed)
{
    util::Rng rng(seed ^ 0xda9da9da9ull);
    std::vector<PlanJob> strata;
    for (std::size_t t = 0; t < kDagLayouts; ++t) {
        PlanJob job;
        job.stratum = static_cast<int>(t);
        job.dot = std::make_shared<const std::string>(
            graph::toDot(dagModel(t, rng)));
        job.array = t % 2 == 0 ? "tpu-v2:8+tpu-v3:8" : "tpu-v2:2+tpu-v3:2";
        job.key = jobKey(job);
        strata.push_back(std::move(job));
    }
    return strata;
}

/** search: the outer search on the 16-board mixed array. */
std::vector<PlanJob>
searchStrata()
{
    const std::string array = "tpu-v2:8+tpu-v3:8";
    return {catalogJob(0, "vgg16", {{"batch", "256"}}, array),
            catalogJob(1, "resnet18", {{"batch", "256"}}, array),
            catalogJob(2, "resnet50", {{"batch", "256"}}, array),
            catalogJob(3, "googlenet", {{"batch", "256"}}, array),
            catalogJob(4, "bert-base", {{"batch", "8"}, {"depth", "2"}},
                       array)};
}

/** Search budget of the search workload: 8 annealing iterations plus
 *  the polish tail, 30-300 ms a search on the seed commit, so a run
 *  holds the ~100 samples its p90 needs. */
constexpr int kSearchBudgetIters = 8;

} // namespace

JobStream::JobStream(const std::string &workload, std::uint64_t seed)
    : _workload(workload), _rng(seed)
{
    if (workload == "plan-cold")
        _strata = planColdStrata();
    else if (workload == "plan-dag")
        _strata = planDagStrata(seed);
    else if (workload == "search")
        _strata = searchStrata();
    else
        throw util::ConfigError("no in-process stream for workload '" +
                                workload + "'");
}

const PlanJob &
JobStream::at(std::size_t index)
{
    while (index >= _jobs.size())
        addRound();
    return _jobs[index];
}

PlanJob
JobStream::probeJob() const
{
    PlanJob job = _strata.front();
    if (_workload == "plan-cold") {
        job = *std::find_if(_strata.begin(), _strata.end(),
                            [](const PlanJob &j) {
                                return j.model == "resnet18" &&
                                       j.array == "homo";
                            });
        job.params.set("batch", "256");
    }
    if (_workload == "search")
        job.budgetIters = kSearchBudgetIters;
    job.key = jobKey(job);
    return job;
}

void
JobStream::addRound()
{
    std::vector<std::size_t> order(_strata.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    shuffle(order, _rng);
    const std::size_t round = _jobs.size() / _strata.size();
    for (std::size_t s : order) {
        PlanJob job = _strata[s];
        if (_workload == "plan-cold" && !job.params.has("batch"))
            job.params.set("batch", pick(std::vector<std::string>{
                                             "128", "256", "512"},
                                         _rng));
        if (_workload == "search") {
            // Round r searches with the same seeds for every --seed, so
            // the costliest searches of a run, which set its peak
            // memory, are the same; --seed orders them.
            job.budgetIters = kSearchBudgetIters;
            job.searchSeed = 1 + round * _strata.size() + s;
        }
        job.key = jobKey(job);
        _jobs.push_back(std::move(job));
    }
}

const char *
serveKindName(ServeKind kind)
{
    switch (kind) {
      case ServeKind::Plan:
        return "plan";
      case ServeKind::Validate:
        return "validate";
      case ServeKind::Search:
        return "search";
      case ServeKind::Stats:
        return "stats";
    }
    return "?";
}

namespace {

/** Zipf(s) over ranks 0..n-1 by inverse CDF. */
class Zipf
{
  public:
    Zipf(int n, double s)
    {
        double sum = 0.0;
        for (int k = 1; k <= n; ++k) {
            sum += 1.0 / std::pow(static_cast<double>(k), s);
            _cdf.push_back(sum);
        }
        for (double &c : _cdf)
            c /= sum;
    }

    int
    draw(util::Rng &rng) const
    {
        const double u = rng.uniformDouble();
        const auto it = std::upper_bound(_cdf.begin(), _cdf.end(), u);
        return static_cast<int>(
            std::min<std::ptrdiff_t>(it - _cdf.begin(),
                                     static_cast<std::ptrdiff_t>(
                                         _cdf.size()) - 1));
    }

  private:
    std::vector<double> _cdf;
};

/** (model, array) strata of the serve plan keys: the hot keys cycle
 *  through the first list, the tail through the second, so how popular
 *  each stratum is does not depend on the seed; the seed only permutes
 *  batch sizes within a stratum. */
using Strata = std::vector<std::pair<std::string, std::string>>;

const Strata &
hotStrata()
{
    static const Strata strata = {
        {"lenet", "homo"},   {"alexnet", "homo"},   {"vgg11", "homo"},
        {"lenet", "hetero"}, {"alexnet", "hetero"}, {"vgg11", "hetero"}};
    return strata;
}

const Strata &
tailStrata()
{
    static const Strata strata = {{"lenet", "tpu-v3:4"},
                                  {"alexnet", "tpu-v2:2+tpu-v3:2"},
                                  {"vgg11", "tpu-v3:4"},
                                  {"resnet18", "tpu-v2:2+tpu-v3:2"},
                                  {"alexnet", "tpu-v2:8+tpu-v3:8"},
                                  {"vgg16", "tpu-v2:4+tpu-v3:4"},
                                  {"vgg13", "tpu-v2:8+tpu-v3:8"},
                                  {"alexnet", "tpu-v3:8"},
                                  {"resnet34", "tpu-v2:2+tpu-v3:2"},
                                  {"googlenet", "tpu-v2:2+tpu-v3:2"}};
    return strata;
}

/** Batch sizes of each stratum's keys, a seeded permutation of
 *  16, 17, 18, ... so every key of a stratum is distinct. */
class ServeBatches
{
  public:
    explicit ServeBatches(util::Rng &rng)
    {
        fill(_hot, hotStrata().size(), kServeHotKeys, rng);
        fill(_tail, tailStrata().size(), kServePlanKeys - kServeHotKeys,
             rng);
    }

    util::Json
    request(int key) const
    {
        const bool hot = key < kServeHotKeys;
        const Strata &strata = hot ? hotStrata() : tailStrata();
        const auto rank =
            static_cast<std::size_t>(hot ? key : key - kServeHotKeys);
        const std::size_t stratum = rank % strata.size();
        util::Json request = util::Json::Object{};
        request["kind"] = "plan";
        request["model"] = strata[stratum].first;
        request["array"] = strata[stratum].second;
        request["batch"] =
            (hot ? _hot : _tail)[stratum][rank / strata.size()];
        return request;
    }

  private:
    static void
    fill(std::vector<std::vector<int>> &batches, std::size_t strata,
         int keys, util::Rng &rng)
    {
        batches.resize(strata);
        for (std::vector<int> &b : batches) {
            for (int j = 0; j * static_cast<int>(strata) < keys; ++j)
                b.push_back(16 + j);
            shuffle(b, rng);
        }
    }

    std::vector<std::vector<int>> _hot;
    std::vector<std::vector<int>> _tail;
};

/** Search keys: three CNNs on two small mixed arrays, four seeds. */
constexpr int kServeSearchKeys = 24;

util::Json
serveSearchRequest(int key, std::uint64_t seed)
{
    static const char *models[] = {"alexnet", "vgg11", "resnet18"};
    static const char *arrays[] = {"tpu-v2:2+tpu-v3:2",
                                   "tpu-v2:4+tpu-v3:4"};
    util::Json request = util::Json::Object{};
    request["kind"] = "search";
    request["model"] = models[key % 3];
    request["array"] = arrays[(key / 3) % 2];
    request["batch"] = 128;
    request["budget_iters"] = 8;
    request["seed"] = static_cast<std::int64_t>(
        (seed % 100000) * 8 + static_cast<std::uint64_t>(key / 6) + 1);
    return request;
}

/** An inline model document in the models/model_io.h format: a stem,
 *  @p units residual units and a classifier head. */
util::Json
validateModelDoc(int index, int units, std::int64_t width,
                 std::int64_t batch)
{
    util::Json::Array layers;
    auto layer = [&](util::Json::Object fields) {
        layers.push_back(util::Json(std::move(fields)));
    };
    layer({{"op", "conv"}, {"name", "stem"}, {"out", width},
           {"kernel", 3}, {"pad", 1}});
    std::string previous = "stem";
    for (int u = 0; u < units; ++u) {
        const std::string a = "u" + std::to_string(u) + "a";
        const std::string b = "u" + std::to_string(u) + "b";
        const std::string s = "u" + std::to_string(u) + "s";
        layer({{"op", "conv"}, {"name", a}, {"out", width},
               {"kernel", 3}, {"pad", 1}, {"input", previous}});
        layer({{"op", "relu"}});
        layer({{"op", "conv"}, {"name", b}, {"out", width},
               {"kernel", 3}, {"pad", 1}});
        layer({{"op", "add"}, {"name", s},
               {"inputs", util::Json::Array{previous, b}}});
        previous = s;
    }
    layer({{"op", "maxpool"}, {"kernel", 2}});
    layer({{"op", "gavgpool"}});
    layer({{"op", "flatten"}});
    layer({{"op", "fc"}, {"name", "fc"}, {"out", 10}});

    util::Json doc = util::Json::Object{};
    doc["name"] = "val" + std::to_string(index);
    doc["input"] = util::Json::Object{{"batch", batch},
                                      {"channels", 3},
                                      {"height", 32},
                                      {"width", 32}};
    doc["layers"] = std::move(layers);
    return doc;
}

constexpr int kValidateDocs = 8;
constexpr char kValidateArray[] = "tpu-v3:4";

/** The validate request bodies; even documents carry a plan of
 *  themselves, planned here with the library. */
std::vector<util::Json>
validateRequests(util::Rng &rng)
{
    std::vector<util::Json> requests;
    Planner planner;
    const hw::AcceleratorGroup array = hw::parseArraySpec(kValidateArray);
    const hw::Hierarchy hierarchy(array);
    for (int d = 0; d < kValidateDocs; ++d) {
        const util::Json doc = validateModelDoc(
            d, 1 + d % 3, pick(std::vector<std::int64_t>{16, 32, 64}, rng),
            pick(std::vector<std::int64_t>{32, 64}, rng));
        util::Json request = util::Json::Object{};
        request["kind"] = "validate";
        request["model"] = doc;
        if (d % 2 == 0) {
            const PlanResult result =
                planner.plan(PlanRequest(models::modelFromJson(doc), array));
            request["plan"] = core::planToJson(result.plan, hierarchy);
            request["array"] = kValidateArray;
            request["strategy"] = "accpar";
        }
        requests.push_back(std::move(request));
    }
    return requests;
}

} // namespace

std::string
statsLine(std::int64_t id)
{
    util::Json request = util::Json::Object{};
    request["kind"] = "stats";
    request["id"] = id;
    return request.dump();
}

ServeTraffic
serveTraffic(std::uint64_t seed, std::size_t count)
{
    util::Rng rng(seed ^ 0x5e77e5e77ull);
    const ServeBatches batches(rng);
    const std::vector<util::Json> validate = validateRequests(rng);
    const Zipf plan_zipf(kServePlanKeys, 0.9);
    const Zipf search_zipf(kServeSearchKeys, 1.0);

    // Replies come back in order on each connection, so requests carry
    // no id and equal requests share one line.
    std::map<std::pair<ServeKind, int>, std::shared_ptr<const std::string>>
        lines;
    const auto make = [&](ServeKind kind, int key) {
        auto &line = lines[{kind, key}];
        if (!line) {
            util::Json body;
            switch (kind) {
              case ServeKind::Plan:
                body = batches.request(key);
                break;
              case ServeKind::Validate:
                body = validate[static_cast<std::size_t>(key)];
                break;
              case ServeKind::Search:
                body = serveSearchRequest(key, seed);
                break;
              case ServeKind::Stats:
                body = util::Json::Object{{"kind", "stats"}};
                break;
            }
            line = std::make_shared<const std::string>(body.dump());
        }
        return ServeRequest{kind, key, line};
    };

    ServeTraffic traffic;
    for (int key = 0; key < kServeHotKeys; ++key)
        traffic.warmup.push_back(make(ServeKind::Plan, key));

    std::vector<ServeKind> block;
    for (auto [kind, n] : {std::pair{ServeKind::Plan, 75},
                           std::pair{ServeKind::Validate, 12},
                           std::pair{ServeKind::Search, 8},
                           std::pair{ServeKind::Stats, 5}})
        block.insert(block.end(), static_cast<std::size_t>(n), kind);
    traffic.stream.reserve(count);
    while (traffic.stream.size() < count) {
        shuffle(block, rng);
        for (ServeKind kind : block) {
            if (traffic.stream.size() == count)
                break;
            int key = -1;
            if (kind == ServeKind::Plan)
                key = plan_zipf.draw(rng);
            else if (kind == ServeKind::Validate)
                key = static_cast<int>(rng.uniformInt(0, kValidateDocs - 1));
            else if (kind == ServeKind::Search)
                key = search_zipf.draw(rng);
            traffic.stream.push_back(make(kind, key));
        }
    }
    return traffic;
}

} // namespace accpar::bench
