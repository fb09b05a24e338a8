/**
 * @file
 * perfbench_load: closed-loop load client for the served-hot-read and
 * served-cold-mixed workloads, plus the in-process replays that give
 * their per-layer numbers.
 *
 *   perfbench_load --socket PATH --pid N --workload hot|cold
 *                  --seed S --seconds T --clients C
 *                  --protected-size B --cache-chunks N --shards K
 *                  [--trace 0|1] [--inject KIND]
 *
 * The daemon at PATH (process N) must be fresh and already answering
 * pings. Each client thread owns one connection and a disjoint slice
 * of store 0, sends its next 64-byte request only after the previous
 * reply arrives, and checks every read against its shadow of its own
 * writes (never-written blocks read as zeros). A transport error, a
 * non-kOk reply or a read that disagrees with the shadow counts as a
 * failed op. After the window the daemon's CPU ticks and VmHWM are
 * read from /proc, kStats is fetched and kVerify must report the tree
 * clean.
 *
 * With --trace 1 the window alternates one-second untraced and traced
 * slices (a traced slice keeps a span per request in memory), and the
 * recorded op sequence is then replayed on one thread, round-robin
 * across clients, through an in-process ServeStore and through a
 * MerkleMemory over a counting Storage decorator.
 *
 * --inject is for the benchmark's self-test only: it plants one fault
 * in client 0 so the correctness gates can be seen to fire.
 *
 * Prints one JSON line.
 */

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "mem/backing_store.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/store.h"
#include "support/logging.h"
#include "verify/merkle_memory.h"

using namespace cmt;
using perfbench::nowNs;

namespace
{

constexpr std::uint32_t kBlock = 64;
/** Hot working set per client, in 64-byte blocks (= chunks). */
constexpr std::uint64_t kHotBlocks = 8;
/** Ops replayed in-process for the per-layer numbers. */
constexpr std::size_t kReplayOps = 40'000;
constexpr std::int64_t kSliceNs = 1'000'000'000;

struct Options
{
    std::string socket;
    long pid = 0;
    bool hot = true;
    std::uint64_t seed = 1;
    double seconds = 10;
    unsigned clients = 1;
    std::uint64_t protectedSize = 1u << 20;
    unsigned cacheChunks = 64;
    unsigned shards = 4;
    bool trace = false;
    std::string inject;
};

std::uint64_t
nextRand(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct Op
{
    bool read = true;
    std::uint64_t addr = 0;
    std::vector<std::uint8_t> data; ///< payload of a write
};

/** One client's deterministic op stream. */
class OpGen
{
  public:
    OpGen(const Options &opt, unsigned client)
        : rng_(opt.seed * 0x2545f4914f6cdd1dull + client),
          readPct_(opt.hot ? 95 : 50)
    {
        const std::uint64_t slice =
            opt.protectedSize / opt.clients / kBlock * kBlock;
        base_ = client * slice;
        blocks_ = opt.hot ? kHotBlocks : slice / kBlock;
    }

    void
    next(Op *op)
    {
        const std::uint64_t pick = nextRand(rng_);
        op->read = nextRand(rng_) % 100 < readPct_;
        op->addr = base_ + (pick % blocks_) * kBlock;
        if (op->read)
            return;
        op->data.resize(kBlock);
        for (std::uint32_t b = 0; b < kBlock; b += 8) {
            const std::uint64_t v = nextRand(rng_);
            std::memcpy(op->data.data() + b, &v, 8);
        }
    }

  private:
    std::uint64_t rng_;
    std::uint64_t readPct_;
    std::uint64_t base_ = 0;
    std::uint64_t blocks_ = 1;
};

/** Expected content of one block under a client's own writes. */
class Shadow
{
  public:
    const std::vector<std::uint8_t> &
    expect(std::uint64_t addr)
    {
        const auto it = map_.find(addr);
        return it == map_.end() ? zeros_ : it->second;
    }

    void set(std::uint64_t addr, const std::vector<std::uint8_t> &v)
    {
        map_[addr] = v;
    }

  private:
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> map_;
    std::vector<std::uint8_t> zeros_ = std::vector<std::uint8_t>(kBlock);
};

struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    bool read = true;
};

struct ClientReport
{
    std::uint64_t ops = 0; ///< ops attempted (the replay length)
    std::uint64_t failed = 0;
    std::uint64_t sliceOps[2] = {0, 0}; ///< [untraced, traced]
    std::string firstError;
    /** Request latencies, by the one-second slice the request began in. */
    std::vector<std::vector<float>> latencyUs;
    std::vector<Span> spans;
};

void
noteFailure(ClientReport &rep, const std::string &what)
{
    ++rep.failed;
    if (rep.firstError.empty())
        rep.firstError = what;
}

void
runClient(const Options &opt, unsigned index, serve::Client &client,
          const std::atomic<bool> &go, std::int64_t start,
          ClientReport &rep)
{
    while (!go.load(std::memory_order_acquire)) {
    }
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(opt.seconds * 1e9);
    OpGen gen(opt, index);
    Shadow shadow;
    Op op;
    std::vector<std::uint8_t> got;
    std::string err;
    std::uint64_t reads = 0;
    const bool injecting = index == 0 && !opt.inject.empty();
    rep.latencyUs.resize(static_cast<std::size_t>(opt.seconds));

    for (std::int64_t t0 = nowNs(); t0 < deadline; t0 = nowNs()) {
        gen.next(&op);
        ++rep.ops;
        const auto slice = static_cast<std::size_t>((t0 - start) / kSliceNs);
        const bool traced = opt.trace && slice % 2 == 1;
        ++rep.sliceOps[traced ? 1 : 0];
        serve::CallResult r;
        if (op.read) {
            ++reads;
            if (injecting && reads == 100 && opt.inject == "bad-request")
                op.addr = opt.protectedSize;
            r = client.readBlock(0, op.addr, kBlock, &got, &err);
        } else {
            r = client.writeBlock(0, op.addr, op.data, &err);
        }
        const std::int64_t t1 = nowNs();
        rep.latencyUs[slice].push_back(static_cast<float>((t1 - t0) / 1e3));
        if (traced)
            rep.spans.push_back({t0, t1, op.read});
        if (r != serve::CallResult::kOk) {
            noteFailure(rep, (op.read ? "read @" : "write @") +
                                 std::to_string(op.addr) + ": " + err);
            if (r == serve::CallResult::kLost)
                break;
            continue;
        }
        if (!op.read) {
            shadow.set(op.addr, op.data);
            continue;
        }
        std::vector<std::uint8_t> expect = shadow.expect(op.addr);
        if (injecting && reads == 100 && opt.inject == "corrupt-shadow")
            expect[0] ^= 0x5a;
        if (injecting && reads == 100 && opt.inject == "tamper-reply")
            got[kBlock - 1] ^= 0xa5;
        if (got != expect)
            noteFailure(rep, "read @" + std::to_string(op.addr) +
                                 " disagrees with this client's writes");
    }
}

std::vector<double>
sorted(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

/** Storage decorator counting and timing every untrusted access. */
class CountingStorage : public Storage
{
  public:
    explicit CountingStorage(Storage &inner) : inner_(inner) {}

    void
    read(std::uint64_t addr, std::span<std::uint8_t> out) override
    {
        const std::int64_t t0 = nowNs();
        inner_.read(addr, out);
        ns += nowNs() - t0;
        ++reads;
        bytes += out.size();
    }

    void
    write(std::uint64_t addr, std::span<const std::uint8_t> in) override
    {
        const std::int64_t t0 = nowNs();
        inner_.write(addr, in);
        ns += nowNs() - t0;
        ++writes;
        bytes += in.size();
    }

    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    std::int64_t ns = 0;

  private:
    Storage &inner_;
};

/**
 * Visit the first kReplayOps of the recorded sequence, round-robin
 * across clients, checking reads against a fresh shadow.
 * @return reads that disagreed with the shadow
 */
template <typename Fn>
std::uint64_t
replay(const Options &opt, const std::vector<ClientReport> &reps,
       std::size_t *count, Fn &&apply)
{
    std::vector<OpGen> gens;
    std::vector<Shadow> shadows(opt.clients);
    for (unsigned c = 0; c < opt.clients; ++c)
        gens.emplace_back(opt, c);
    std::vector<std::uint8_t> got(kBlock);
    std::uint64_t mismatches = 0;
    Op op;
    *count = 0;
    for (std::uint64_t i = 0; *count < kReplayOps; ++i) {
        bool any = false;
        for (unsigned c = 0; c < opt.clients && *count < kReplayOps;
             ++c) {
            if (i >= reps[c].ops)
                continue;
            any = true;
            gens[c].next(&op);
            apply(op, got);
            ++*count;
            if (!op.read)
                shadows[c].set(op.addr, op.data);
            else if (got != shadows[c].expect(op.addr))
                ++mismatches;
        }
        if (!any)
            break;
    }
    return mismatches;
}

MerkleConfig
merkleConfig(const Options &opt)
{
    // cmt_served's construction, with the flags run.py passes it.
    MerkleConfig mc;
    mc.protectedSize = opt.protectedSize;
    mc.cacheChunks = opt.cacheChunks;
    mc.shards = opt.shards;
    return mc;
}

/** Per-layer numbers from the two single-thread replays. */
std::string
replayLayers(const Options &opt, const std::vector<ClientReport> &reps)
{
    perfbench::JsonObject o;
    std::size_t n = 0;

    serve::ServeStore store("replay", merkleConfig(opt));
    std::vector<double> read_us, write_us, all_us;
    std::string err;
    std::vector<serve::StoreOutcome> outcomes;
    std::uint64_t bad = replay(opt, reps, &n,
                               [&](const Op &op,
                                   std::vector<std::uint8_t> &got) {
        const std::int64_t t0 = nowNs();
        serve::StoreOutcome r;
        if (op.read) {
            r = store.read(op.addr, kBlock, &got, &err);
        } else {
            const serve::WriteOp w{op.addr, op.data};
            r = store.applyWriteBatch(std::span(&w, 1), &outcomes, &err);
        }
        const double us = (nowNs() - t0) / 1e3;
        (op.read ? read_us : write_us).push_back(us);
        all_us.push_back(us);
        if (r != serve::StoreOutcome::kOk)
            cmt_fatal("perfbench_load: replay store op failed: %s",
                      err.c_str());
    });
    o.num("replay_ops", static_cast<double>(n));
    o.num("store.read_us_p50", perfbench::percentile(sorted(read_us), 0.5));
    o.num("store.write_us_p50",
          perfbench::percentile(sorted(write_us), 0.5));
    o.num("store.op_us_p50", perfbench::percentile(sorted(all_us), 0.5));

    BackingStore backing;
    CountingStorage counting(backing);
    MerkleMemory mm(counting, merkleConfig(opt));
    std::vector<double> load_us, store_us;
    bad += replay(opt, reps, &n,
                  [&](const Op &op, std::vector<std::uint8_t> &got) {
        const std::int64_t t0 = nowNs();
        if (op.read)
            mm.load(op.addr, got);
        else
            mm.store(op.addr, op.data);
        (op.read ? load_us : store_us).push_back((nowNs() - t0) / 1e3);
    });
    const double ops = static_cast<double>(n);
    const double hits = static_cast<double>(mm.statCacheHits.value());
    const double lookups =
        hits + static_cast<double>(mm.statCacheMisses.value());
    o.num("verify.load_us_p50", perfbench::percentile(sorted(load_us), 0.5));
    o.num("verify.store_us_p50",
          perfbench::percentile(sorted(store_us), 0.5));
    o.num("verify.cache_hit_ratio", lookups > 0 ? hits / lookups : 0);
    o.num("verify.auth_computes_per_op",
          static_cast<double>(mm.statAuthComputes.value()) / ops);
    o.num("verify.checks_per_op",
          static_cast<double>(mm.statChecks.value()) / ops);
    o.num("mem.untrusted_reads_per_op",
          static_cast<double>(counting.reads) / ops);
    o.num("mem.untrusted_bytes_per_op",
          static_cast<double>(counting.bytes) / ops);
    o.num("mem.storage_us_per_op", counting.ns / 1e3 / ops);
    o.num("replay_mismatches", static_cast<double>(bad));
    return o.text();
}

std::uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        cmt_fatal("perfbench_load: %s expects a whole number, got '%s'",
                  flag.c_str(), text);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    if (argc % 2 != 1)
        cmt_fatal("perfbench_load: arguments come in --flag value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const char *v = argv[i + 1];
        if (arg == "--socket")
            opt.socket = v;
        else if (arg == "--pid")
            opt.pid = static_cast<long>(parseU64(arg, v));
        else if (arg == "--workload")
            opt.hot = std::string(v) == "hot";
        else if (arg == "--seed")
            opt.seed = parseU64(arg, v);
        else if (arg == "--seconds")
            opt.seconds = static_cast<double>(parseU64(arg, v));
        else if (arg == "--clients")
            opt.clients = static_cast<unsigned>(parseU64(arg, v));
        else if (arg == "--protected-size")
            opt.protectedSize = parseU64(arg, v);
        else if (arg == "--cache-chunks")
            opt.cacheChunks = static_cast<unsigned>(parseU64(arg, v));
        else if (arg == "--shards")
            opt.shards = static_cast<unsigned>(parseU64(arg, v));
        else if (arg == "--trace")
            opt.trace = parseU64(arg, v) != 0;
        else if (arg == "--inject")
            opt.inject = v;
        else
            cmt_fatal("perfbench_load: unknown argument '%s'", arg.c_str());
    }
    if (opt.socket.empty() || opt.pid <= 0 || opt.clients == 0)
        cmt_fatal("perfbench_load: --socket, --pid and --clients are "
                  "required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    serve::Client control;
    std::string err;
    if (!control.connectTo(opt.socket, &err))
        cmt_fatal("perfbench_load: connect: %s", err.c_str());
    std::vector<serve::Client> clients(opt.clients);
    for (serve::Client &c : clients) {
        if (!c.connectTo(opt.socket, &err))
            cmt_fatal("perfbench_load: connect: %s", err.c_str());
    }

    serve::ServerStats before, after;
    std::uint64_t utime0 = 0, stime0 = 0, utime1 = 0, stime1 = 0;
    if (!control.fetchStats(&before, &err) ||
        !perfbench::readProcCpuTicks(opt.pid, &utime0, &stime0))
        cmt_fatal("perfbench_load: reading daemon counters failed");

    std::vector<ClientReport> reps(opt.clients);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    const std::int64_t start = nowNs() + 20'000'000;
    for (unsigned i = 0; i < opt.clients; ++i)
        threads.emplace_back([&, i] {
            runClient(opt, i, clients[i], go, start, reps[i]);
        });
    while (nowNs() < start) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();

    // Daemon counters first: nothing but the window is in them.
    if (!perfbench::readProcCpuTicks(opt.pid, &utime1, &stime1))
        cmt_fatal("perfbench_load: reading /proc/%ld/stat failed",
                  opt.pid);
    const std::uint64_t hwm_kb =
        perfbench::readVmHwmKb(std::to_string(opt.pid));
    if (!control.fetchStats(&after, &err))
        cmt_fatal("perfbench_load: kStats: %s", err.c_str());
    bool clean = false;
    if (!control.verifyStore(0, &clean, &err))
        clean = false;

    std::uint64_t ops = 0, failed = 0, slice_ops[2] = {0, 0};
    std::string first_error;
    // Per one-second slice: completed requests and their latency
    // percentiles. Outside interference (other tenants, hypervisor
    // steal) only ever makes a slice slower, and on a shared host it
    // comes and goes within a run. So each figure is the quiet-side
    // decile over slices: the upper decile of rates, the lower decile
    // of latencies. The figure holds as long as a tenth of the slices
    // run undisturbed.
    std::vector<double> all, slice_rate, slice_p50, slice_p99;
    for (std::size_t s = 0; s < static_cast<std::size_t>(opt.seconds); ++s) {
        std::vector<double> lat;
        for (const ClientReport &r : reps)
            lat.insert(lat.end(), r.latencyUs[s].begin(),
                       r.latencyUs[s].end());
        std::sort(lat.begin(), lat.end());
        slice_rate.push_back(static_cast<double>(lat.size()));
        slice_p50.push_back(perfbench::percentile(lat, 0.50));
        slice_p99.push_back(perfbench::percentile(lat, 0.99));
        all.insert(all.end(), lat.begin(), lat.end());
    }
    for (const ClientReport &r : reps) {
        ops += r.ops;
        failed += r.failed;
        slice_ops[0] += r.sliceOps[0];
        slice_ops[1] += r.sliceOps[1];
        if (first_error.empty())
            first_error = r.firstError;
    }
    std::sort(all.begin(), all.end());
    const auto quantile = [](std::vector<double> v, double p) {
        return perfbench::percentile(sorted(std::move(v)), p);
    };
    const double top = perfbench::highestSupportedPercentile(all.size());
    const double tick_us = 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));

    perfbench::JsonObject o;
    o.num("ops", static_cast<double>(ops))
        .num("failed", static_cast<double>(failed))
        .str("first_error", first_error)
        .num("verify_clean", clean ? 1 : 0)
        .num("ops_per_s", quantile(slice_rate, 0.9))
        .num("lat_p50_us", quantile(slice_p50, 0.1))
        .num("lat_p99_us", quantile(slice_p99, 0.1))
        .num("lat_samples", static_cast<double>(all.size()))
        .num("lat_window_p99_us", perfbench::percentile(all, 0.99))
        .num("lat_max_supported_pct", top)
        .num("lat_at_max_supported_us", perfbench::percentile(all, top / 100))
        .num("server_user_us", (utime1 - utime0) * tick_us)
        .num("server_sys_us", (stime1 - stime0) * tick_us)
        .num("daemon_hwm_kb", static_cast<double>(hwm_kb))
        .num("requests", static_cast<double>(after.requests -
                                             before.requests))
        .num("bytes_in", static_cast<double>(after.bytesIn - before.bytesIn))
        .num("bytes_out",
             static_cast<double>(after.bytesOut - before.bytesOut));
    if (opt.trace) {
        // Seconds spent in each slice kind (the last slice may be cut).
        double slice_s[2] = {0, 0};
        for (double t = 0; t < opt.seconds; t += 1)
            slice_s[static_cast<int>(t) % 2] += std::min(1.0, opt.seconds - t);
        o.num("untraced_ops_per_s",
              slice_s[0] > 0 ? slice_ops[0] / slice_s[0] : 0)
            .num("traced_ops_per_s",
                 slice_s[1] > 0 ? slice_ops[1] / slice_s[1] : 0)
            .raw("layers", replayLayers(opt, reps));
    }
    std::printf("%s\n", o.text().c_str());
    return 0;
}
