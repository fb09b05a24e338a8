/**
 * @file
 * perfbench_sim: the sim-schemes workload. Drives System::run
 * directly, one configuration after another on one thread, over the
 * matrix {mcf, swim} x {base, naive, cached, incremental} on the
 * Table-1 machine, and repeats the matrix until the time budget is
 * spent. Nothing goes through SweepRunner, so no memo cache can hand
 * back a stale host time.
 *
 *   perfbench_sim --seconds S --trace-seed N --trace-seeds M [--trace 0|1]
 *
 * Each pass runs the matrix on one synthetic trace; the passes step
 * through trace seeds N, N+1, ... wrapping from M back to 1, so a run
 * times the same mix of traces whatever N is.
 *
 * Untraced passes build each System with its own SpecGen. With
 * --trace 1 the passes alternate between untraced and traced; a
 * traced pass hands System a TimedTrace decorator (below), the only
 * probe, which times SpecGen::next from outside. Both kinds of pass
 * must produce the same statistics digest per configuration.
 *
 * Prints one JSON line: per pass, per configuration, the host times,
 * the simulated instruction and cycle counts, selected counters and a
 * hex FNV-1a digest over every registered statistic. run.py turns it
 * into metrics and checks the digests against the committed
 * reference.
 */

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common.h"
#include "sim/config.h"
#include "sim/system.h"
#include "support/logging.h"
#include "trace/specgen.h"
#include "tree/scheme.h"

using namespace cmt;
using perfbench::nowNs;

namespace
{

/** Instruction windows of every configuration in the matrix. */
constexpr std::uint64_t kWarmup = 100'000;
constexpr std::uint64_t kMeasure = 200'000;
/** TimedTrace refill size; divides kWarmup so a refill starts at
 *  exactly the first measured instruction. */
constexpr std::size_t kBatch = 1'000;
static_assert(kWarmup % kBatch == 0);

/** Counters reported per configuration (per-layer metrics). */
const char *const kCounters[] = {
    "l2.read_misses",      "l2.integrity_block_reads",
    "l2.hash_chunk_fetches", "l2.buffer_stalls",
    "hash.jobs",           "hash.bytes",
    "mem.reads",           "mem.writes",
};

/**
 * TraceSource decorator that pulls SpecGen output in batches and
 * times each batch, so the probe costs two clock reads per kBatch
 * instructions. It also stamps the host time at which the core first
 * asks for the instruction after the warm-up window, which splits
 * System::run's host time into warm-up and measured parts.
 */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(const WorkloadProfile &profile, std::uint64_t seed,
               std::uint64_t boundary)
        : gen_(profile, seed), buf_(kBatch), boundary_(boundary)
    {}

    bool
    next(TraceInstr &out) override
    {
        if (pos_ == filled_ && !refill())
            return false;
        out = buf_[pos_++];
        return true;
    }

    std::int64_t traceNs() const { return traceNs_; }
    std::int64_t traceWindowNs() const { return traceWindowNs_; }
    std::uint64_t pulled() const { return pulled_; }
    std::int64_t boundaryAt() const { return boundaryAt_; }

  private:
    bool
    refill()
    {
        if (boundaryAt_ == 0 && pulled_ >= boundary_)
            boundaryAt_ = nowNs();
        const std::int64_t t0 = nowNs();
        filled_ = 0;
        while (filled_ < buf_.size() && gen_.next(buf_[filled_]))
            ++filled_;
        const std::int64_t dt = nowNs() - t0;
        traceNs_ += dt;
        if (boundaryAt_ != 0)
            traceWindowNs_ += dt;
        pulled_ += filled_;
        pos_ = 0;
        return filled_ != 0;
    }

    SpecGen gen_;
    std::vector<TraceInstr> buf_;
    std::size_t pos_ = 0;
    std::size_t filled_ = 0;
    const std::uint64_t boundary_;
    std::uint64_t pulled_ = 0;
    std::int64_t traceNs_ = 0;
    std::int64_t traceWindowNs_ = 0;
    std::int64_t boundaryAt_ = 0;
};

struct Config
{
    std::string label;
    SystemConfig cfg;
};

std::vector<Config>
matrix(std::uint64_t trace_seed)
{
    const char *const benches[] = {"mcf", "swim"};
    const Scheme schemes[] = {Scheme::kBase, Scheme::kNaive,
                              Scheme::kCached, Scheme::kIncremental};
    std::vector<Config> out;
    for (const char *bench : benches) {
        for (const Scheme scheme : schemes) {
            Config c;
            c.label = std::string(bench) + "/" + schemeName(scheme);
            c.cfg.benchmark = bench;
            c.cfg.seed = trace_seed;
            c.cfg.warmupInstructions = kWarmup;
            c.cfg.measureInstructions = kMeasure;
            c.cfg.l2.scheme = scheme;
            // The i scheme needs two blocks per chunk (Figure 8's
            // i-64B); the others keep chunk == block (c).
            if (scheme == Scheme::kIncremental)
                c.cfg.l2.chunkSize = 2 * c.cfg.l2.blockSize;
            out.push_back(std::move(c));
        }
    }
    return out;
}

/** FNV-1a over every registered statistic and the result's counts. */
std::uint64_t
statsDigest(const System &sys, const SimResult &r)
{
    std::uint64_t h = perfbench::kFnvBasis;
    sys.stats().forEachCounter([&](const Counter &c) {
        perfbench::fold(h, c.name().data(), c.name().size());
        const std::uint64_t v = c.value();
        perfbench::fold(h, &v, sizeof v);
    });
    sys.stats().forEachDistribution([&](const Distribution &d) {
        perfbench::fold(h, d.name().data(), d.name().size());
        const std::uint64_t n = d.count();
        const double m[3] = {d.mean(), d.min(), d.max()};
        perfbench::fold(h, &n, sizeof n);
        perfbench::fold(h, m, sizeof m);
    });
    const std::uint64_t tail[3] = {r.instructions, r.cycles,
                                   r.integrityFailures};
    perfbench::fold(h, tail, sizeof tail);
    return h;
}

std::int64_t
cpuNs()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto ns = [](const timeval &tv) {
        return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
               static_cast<std::int64_t>(tv.tv_usec) * 1'000;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/** Build and run one configuration; @return its JSON record. */
std::string
runConfig(const Config &c, bool traced)
{
    perfbench::JsonObject o;
    o.str("label", c.label);
    TimedTrace *probe = nullptr;
    std::unique_ptr<TraceSource> trace;
    if (traced) {
        auto t = std::make_unique<TimedTrace>(
            profileFor(c.cfg.benchmark), c.cfg.seed,
            c.cfg.warmupInstructions);
        probe = t.get();
        trace = std::move(t);
    }
    try {
        ScopedThrowOnError guard;
        const std::int64_t cpu0 = cpuNs();
        const std::int64_t t0 = nowNs();
        System sys(c.cfg, std::move(trace));
        const std::int64_t t1 = nowNs();
        const SimResult r = sys.run();
        const std::int64_t t2 = nowNs();
        o.num("setup_ns", static_cast<double>(t1 - t0));
        o.num("run_ns", static_cast<double>(t2 - t1));
        o.num("cpu_ns", static_cast<double>(cpuNs() - cpu0));
        o.num("instr", static_cast<double>(c.cfg.warmupInstructions +
                                           r.instructions));
        o.num("measured_instr", static_cast<double>(r.instructions));
        o.num("measured_cycles", static_cast<double>(r.cycles));
        o.str("digest", perfbench::hex64(statsDigest(sys, r)));
        perfbench::JsonObject counts;
        for (const char *name : kCounters)
            counts.num(name,
                       static_cast<double>(sys.stats().counterValue(name)));
        o.raw("counts", counts.text());
        if (probe != nullptr) {
            o.num("trace_ns", static_cast<double>(probe->traceNs()));
            o.num("trace_window_ns",
                  static_cast<double>(probe->traceWindowNs()));
            o.num("pulled", static_cast<double>(probe->pulled()));
            o.num("window_ns",
                  static_cast<double>(probe->boundaryAt() == 0
                                          ? 0
                                          : t2 - probe->boundaryAt()));
        }
    } catch (const std::exception &e) {
        o.str("error", e.what());
    }
    return o.text();
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        cmt_fatal("perfbench_sim: %s expects a whole number, got '%s'",
                  flag, text);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    double seconds = 10;
    std::uint64_t first_seed = 1;
    std::uint64_t seed_count = 1;
    bool trace_mode = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--seconds")
            seconds = static_cast<double>(parseU64("--seconds", argv[i + 1]));
        else if (arg == "--trace-seed")
            first_seed = parseU64("--trace-seed", argv[i + 1]);
        else if (arg == "--trace-seeds")
            seed_count = parseU64("--trace-seeds", argv[i + 1]);
        else if (arg == "--trace")
            trace_mode = parseU64("--trace", argv[i + 1]) != 0;
        else
            cmt_fatal("perfbench_sim: unknown argument '%s'", arg.c_str());
    }
    if (argc % 2 != 1)
        cmt_fatal("perfbench_sim: arguments come in --flag value pairs");
    if (first_seed < 1 || first_seed > seed_count)
        cmt_fatal("perfbench_sim: --trace-seed must be in [1, --trace-seeds]");

    const std::int64_t budget_ns = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t start = nowNs();
    std::int64_t longest_pass = 0;
    std::string passes;
    for (int pass = 0;; ++pass) {
        const std::int64_t elapsed = nowNs() - start;
        // One pass minimum (two when tracing, one of each kind); then
        // only passes that fit in the budget.
        if (pass >= (trace_mode ? 2 : 1) &&
            elapsed + longest_pass > budget_ns)
            break;
        const bool traced = trace_mode && pass % 2 == 1;
        // A traced pass reruns the untraced pass's trace, so the two
        // kinds compare like with like.
        const std::uint64_t step = trace_mode ? pass / 2 : pass;
        const std::uint64_t trace_seed =
            1 + (first_seed - 1 + step) % seed_count;
        const std::vector<Config> configs = matrix(trace_seed);
        const std::int64_t t0 = nowNs();
        std::string rows;
        for (const Config &c : configs)
            rows += (rows.empty() ? "" : ", ") + runConfig(c, traced);
        const std::int64_t wall = nowNs() - t0;
        longest_pass = std::max(longest_pass, wall);
        perfbench::JsonObject p;
        p.num("traced", traced ? 1 : 0)
            .num("trace_seed", static_cast<double>(trace_seed))
            .num("wall_ns", static_cast<double>(wall))
            .raw("configs", "[" + rows + "]");
        passes += (passes.empty() ? "" : ", ") + p.text();
    }

    perfbench::JsonObject doc;
    doc.num("peak_rss_kb",
             static_cast<double>(perfbench::readVmHwmKb("self")))
        .raw("passes", "[" + passes + "]");
    std::printf("%s\n", doc.text().c_str());
    return 0;
}
