/**
 * @file
 * End-to-end benchmark program. One invocation runs one sweep once
 * and prints one JSON line on stdout. Modes:
 *
 *  (default)        Submit the sweep exactly as the paper harnesses
 *                   do (RunMatrix::addReplayGroup / addMixGroup,
 *                   IpcMatrix::add) and time it from outside: wall,
 *                   process CPU, peak RSS and set-up time, plus a
 *                   digest of every result cell.
 *  --trace FILE     The layer pass: the same sweep run serially by
 *                   calling each layer's public entry point directly
 *                   (loadOrRecordStream, replayMany, composeMixStream,
 *                   runIpc) with a span around every call, plus probe
 *                   passes that isolate single layers (generation
 *                   only, stream decode only, stream file write/read).
 *                   Spans are kept in memory and written to FILE.
 *  --regen-expected FILE
 *                   The oracle: every cell simulated by the direct
 *                   engine only (runTrace, runMixDirect, runIpc), its
 *                   digests written to FILE.
 *  --calibrate      A fixed reference kernel on --jobs threads that
 *                   runs no simulator code; run.py normalizes every
 *                   rep's times by it (host-speed drift).
 *
 * benchmark/run.py drives these modes; see benchmark/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/args.hh"
#include "sim/mix.hh"
#include "sim/replay.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"

using namespace ldis;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** What one sweep submits: solo groups, mix groups, or IPC cells. */
struct Sweep
{
    std::string name;
    std::vector<std::string> solo;
    std::vector<ConfigKind> kinds;
    std::vector<MixSpec> mixes;
    bool ipc = false;
};

/**
 * The four sweeps, each a copy of a paper harness's submissions:
 * fig06 = bench/fig06_mpki.cc, allcfg = the 13-config solo sweep,
 * mix = bench/mix_mpki.cc, ipc = bench/fig09_ipc.cc.
 */
bool
makeSweep(const std::string &name, Sweep &s)
{
    s.name = name;
    if (name == "fig06") {
        s.solo = studiedBenchmarks();
        s.kinds = {ConfigKind::Baseline1MB, ConfigKind::LdisBase,
                   ConfigKind::LdisMT, ConfigKind::LdisMTRC};
    } else if (name == "allcfg") {
        s.solo = studiedBenchmarks();
        s.kinds = allConfigKinds();
    } else if (name == "mix") {
        for (const MixSpec &mix : mixTable())
            for (const std::string &m : mix.members)
                if (std::find(s.solo.begin(), s.solo.end(), m) ==
                    s.solo.end())
                    s.solo.push_back(m);
        s.kinds = allConfigKinds();
        s.mixes = mixTable();
    } else if (name == "ipc") {
        s.solo = studiedBenchmarks();
        s.kinds = {ConfigKind::Baseline1MB, ConfigKind::LdisMTRC};
        s.ipc = true;
    } else {
        return false;
    }
    return true;
}

/** Result-slot labels in submission order (the runner's own). */
std::vector<std::string>
cellLabels(const Sweep &s)
{
    std::vector<std::string> out;
    for (const std::string &b : s.solo)
        for (ConfigKind k : s.kinds)
            out.push_back(b + "/" + configName(k) +
                          (s.ipc ? "/ipc" : ""));
    for (const MixSpec &m : s.mixes)
        for (ConfigKind k : s.kinds)
            out.push_back(m.name + "/" + configName(k));
    return out;
}

/**
 * FNV-1a over the simulated statistics of one cell. The benchmark's
 * own serializer, so output-format changes elsewhere cannot move it;
 * doubles are hashed by their exact bits.
 */
class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    }

    void
    f64(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001B3ull;
        }
    }

    void
    l2(const L2Stats &s)
    {
        u64(s.accesses);
        u64(s.locHits);
        u64(s.wocHits);
        u64(s.holeMisses);
        u64(s.lineMisses);
        u64(s.compulsoryMisses);
        u64(s.writebacks);
        u64(s.evictions);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
        return buf;
    }

  private:
    std::uint64_t h = 0xCBF29CE484222325ull;
};

std::string
digestOf(const RunResult &r)
{
    Digest d;
    d.str(r.benchmark);
    d.str(r.config);
    d.u64(r.instructions);
    d.f64(r.mpki);
    d.l2(r.l2);
    d.u64(r.l1d.accesses);
    d.u64(r.l1d.hits);
    d.u64(r.l1d.sectorMisses);
    d.u64(r.l1d.lineMisses);
    d.u64(r.l1i.accesses);
    d.u64(r.l1i.misses);
    d.u64(r.streams.size());
    for (const StreamStat &s : r.streams) {
        d.str(s.benchmark);
        d.u64(s.instructions);
        d.f64(s.mpki);
        d.l2(s.l2);
    }
    return d.hex();
}

std::string
digestOf(const IpcResult &r)
{
    Digest d;
    d.str(r.benchmark);
    d.str(r.config);
    d.f64(r.ipc);
    d.f64(r.mpki);
    d.u64(r.cpu.instructions);
    d.u64(r.cpu.cycles);
    d.u64(r.cpu.loads);
    d.u64(r.cpu.stores);
    d.u64(r.cpu.wrongPathLoads);
    d.u64(r.branch.branches);
    d.u64(r.branch.mispredictions);
    return d.hex();
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Flat JSON object writer; values keep every digit. */
class JsonLine
{
  public:
    JsonLine &
    raw(const std::string &key, const std::string &json)
    {
        out += (out.size() > 1 ? "," : "") + quoted(key) + ":" + json;
        return *this;
    }

    JsonLine &
    num(const std::string &k, double v)
    {
        return raw(k, number(v));
    }

    JsonLine &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, quoted(v));
    }

    std::string done() const { return out + "}"; }

  private:
    std::string out = "{";
};

std::string
cellsJson(const std::vector<std::string> &labels,
          const std::vector<std::string> &digests)
{
    JsonLine j;
    for (std::size_t i = 0; i < labels.size(); ++i)
        j.str(labels[i], digests[i]);
    return j.done();
}

/** User + system CPU seconds of the whole process so far. */
double
cpuSeconds(const rusage &ru)
{
    auto s = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

rusage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

/**
 * The paper figure a sweep reproduces: LDIS-MT-RC's average MPKI
 * reduction over TRAD-1MB (Fig 6, paper 30.7%) on the solo sweeps,
 * gmean IPC gain (Fig 9, paper 12%) on ipc. The mix sweep has no
 * paper counterpart (returns NaN).
 */
double
paperValue(const Sweep &s, const std::vector<double> &base,
           const std::vector<double> &mtrc)
{
    if (!s.mixes.empty() || base.empty())
        return NAN;
    if (s.ipc) {
        std::vector<double> gains;
        for (std::size_t i = 0; i < base.size(); ++i)
            gains.push_back(base[i] == 0.0 ? 0.0
                                           : mtrc[i] / base[i] - 1.0);
        return 100.0 * geomeanSpeedup(gains);
    }
    double b = 0.0;
    double m = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        b += base[i];
        m += mtrc[i];
    }
    return percentReduction(b, m);
}

double
paperTarget(const Sweep &s)
{
    return s.ipc ? 12.0 : 30.7;
}

/** Column of @p kind in the sweep's config list (or -1). */
int
kindIndex(const Sweep &s, ConfigKind kind)
{
    for (std::size_t k = 0; k < s.kinds.size(); ++k)
        if (s.kinds[k] == kind)
            return static_cast<int>(k);
    return -1;
}

/** Per-solo-benchmark headline values of two configs, in order. */
template <typename Result, typename Get>
void
headline(const Sweep &s, const std::vector<Result> &rs, Get get,
         std::vector<double> &base, std::vector<double> &mtrc)
{
    int kb = kindIndex(s, ConfigKind::Baseline1MB);
    int km = kindIndex(s, ConfigKind::LdisMTRC);
    for (std::size_t b = 0; b < s.solo.size(); ++b) {
        base.push_back(get(rs[b * s.kinds.size() + kb]));
        mtrc.push_back(get(rs[b * s.kinds.size() + km]));
    }
}

// ---------------------------------------------------------------
// Default mode: the sweep through the public matrix API.
// ---------------------------------------------------------------

int
runE2e(const Sweep &s, std::uint64_t seed, InstCount n,
       unsigned jobs)
{
    std::vector<std::string> digests;
    std::vector<JobTiming> timings;
    std::vector<double> base, mtrc;
    std::size_t disk_cells = 0;
    double setup = 0.0;

    rusage ru0 = usage();
    auto t0 = Clock::now();
    double wall = 0.0;
    rusage ru1{};
    if (s.ipc) {
        IpcMatrix m(jobs);
        for (const std::string &b : s.solo)
            for (ConfigKind k : s.kinds)
                m.add(b, k, n, seed);
        const std::vector<IpcResult> &rs = m.run();
        wall = since(t0);
        ru1 = usage();
        timings = m.timings();
        for (const IpcResult &r : rs)
            digests.push_back(digestOf(r));
        headline(s, rs, [](const IpcResult &r) { return r.ipc; },
                 base, mtrc);
    } else {
        RunMatrix m(jobs);
        for (const std::string &b : s.solo)
            m.addReplayGroup(b, s.kinds, n, seed);
        for (const MixSpec &mix : s.mixes)
            m.addMixGroup(mix, s.kinds, n, seed);
        const std::vector<RunResult> &rs = m.run();
        wall = since(t0);
        ru1 = usage();
        timings = m.timings();
        for (const RunResult &r : rs) {
            digests.push_back(digestOf(r));
            disk_cells += r.streamSource == "disk-cache";
        }
        headline(s, rs, [](const RunResult &r) { return r.mpki; },
                 base, mtrc);
    }

    double critical = 0.0;
    const std::string suffix = "/frontend";
    for (const JobTiming &t : timings) {
        critical = std::max(critical, t.wallSeconds);
        if (t.label.size() > suffix.size() &&
            t.label.compare(t.label.size() - suffix.size(),
                            suffix.size(), suffix) == 0)
            setup += t.wallSeconds;
    }

    // The IPC matrix has no set-up jobs: each cell builds its
    // workload, L2 and core inside its own job. Time that
    // construction once per cell, outside the timed sweep, as the
    // sweep's set-up cost.
    if (s.ipc) {
        auto c0 = Clock::now();
        for (const std::string &b : s.solo) {
            for (ConfigKind k : s.kinds) {
                auto wl = makeBenchmark(b, seed);
                L2Instance l2 = makeConfig(k, wl->valueProfile());
                OooCore core(CpuParams{}, *wl, *l2.cache);
            }
        }
        setup = since(c0);
    }

    JsonLine j;
    j.str("mode", "e2e")
        .str("sweep", s.name)
        .num("seed", static_cast<double>(seed))
        .num("instructions", static_cast<double>(n))
        .num("jobs", jobs)
        .num("wall_s", wall)
        .num("cpu_s", cpuSeconds(ru1) - cpuSeconds(ru0))
        .num("peak_rss_mb", static_cast<double>(ru1.ru_maxrss) / 1024.0)
        .num("setup_s", setup)
        .num("critical_job_s", critical)
        .num("disk_cache_cells", static_cast<double>(disk_cells))
        .num("paper_value", paperValue(s, base, mtrc))
        .num("paper_target", paperTarget(s))
        .raw("cells", cellsJson(cellLabels(s), digests));
    std::printf("%s\n", j.done().c_str());
    return 0;
}

// ---------------------------------------------------------------
// Oracle mode: direct engine only.
// ---------------------------------------------------------------

int
runOracle(const Sweep &s, std::uint64_t seed, InstCount n,
          unsigned jobs, const std::string &path)
{
    struct Cell
    {
        std::string bench;
        const MixSpec *mix = nullptr;
        ConfigKind kind;
    };
    std::vector<Cell> cells;
    for (const std::string &b : s.solo)
        for (ConfigKind k : s.kinds)
            cells.push_back({b, nullptr, k});
    for (const MixSpec &m : s.mixes)
        for (ConfigKind k : s.kinds)
            cells.push_back({"", &m, k});

    // A plain thread pool, deliberately not the runner under test.
    std::vector<std::string> digests(cells.size());
    std::vector<std::exception_ptr> errors(jobs);
    std::atomic<std::size_t> next{0};
    auto worker = [&](unsigned w) {
        try {
            for (std::size_t i = next++; i < cells.size(); i = next++) {
                const Cell &c = cells[i];
                if (s.ipc)
                    digests[i] =
                        digestOf(runIpc(c.bench, c.kind, n, seed));
                else if (c.mix)
                    digests[i] = digestOf(
                        runMixDirect(*c.mix, c.kind, n, seed));
                else
                    digests[i] =
                        digestOf(runTrace(c.bench, c.kind, n, seed));
            }
        } catch (...) {
            errors[w] = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < jobs; ++w)
        pool.emplace_back(worker, w);
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    JsonLine j;
    j.str("sweep", s.name)
        .num("seed", static_cast<double>(seed))
        .num("instructions", static_cast<double>(n))
        .str("engine", "direct")
        .raw("cells", cellsJson(cellLabels(s), digests));
    std::ofstream out(path);
    out << j.done() << "\n";
    if (!out) {
        std::fprintf(stderr, "ldis_bench: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    std::printf("%s\n", JsonLine()
                            .str("mode", "oracle")
                            .str("sweep", s.name)
                            .str("path", path)
                            .done()
                            .c_str());
    return 0;
}

// ---------------------------------------------------------------
// Calibration mode: the host's current speed.
// ---------------------------------------------------------------

/**
 * A fixed reference kernel that runs no simulator code: random
 * read-modify-writes over an 8 MB table per thread, like a cache
 * model walking its metadata. @p jobs threads split a fixed amount
 * of work, so an uncontended host takes about as long on any thread
 * count. run.py times it next to every rep and divides the rep's
 * times by it, which removes the host-speed drift of a shared
 * machine from the end-to-end metrics.
 */
int
runCalibration(unsigned jobs)
{
    constexpr std::size_t kTable = std::size_t{1} << 21;
    constexpr std::uint64_t kWork = 6'000'000;
    std::vector<std::uint64_t> sinks(jobs);
    auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < jobs; ++w) {
        pool.emplace_back([&sinks, w, jobs] {
            std::vector<std::uint32_t> table(kTable);
            std::uint64_t x = 0x9E3779B97F4A7C15ull + w;
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < kWork / jobs; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                std::uint32_t &e = table[x & (kTable - 1)];
                if (e & 1)
                    acc += e;
                else
                    e += static_cast<std::uint32_t>(x);
            }
            sinks[w] = acc;
        });
    }
    for (std::thread &t : pool)
        t.join();
    double wall = since(t0);
    std::uint64_t sink = 0;
    for (std::uint64_t v : sinks)
        sink ^= v;
    std::printf("%s\n", JsonLine()
                            .str("mode", "calibrate")
                            .num("jobs", jobs)
                            .num("calib_s", wall)
                            .num("sink", static_cast<double>(sink & 1))
                            .done()
                            .c_str());
    return 0;
}

// ---------------------------------------------------------------
// Trace mode: the layer pass.
// ---------------------------------------------------------------

/**
 * In-memory span recorder. A span has a name, a parent (-1 for the
 * root), and either a [start, end] interval on this process's
 * monotonic clock or, for walk-internal parts reported by
 * GangReplayInfo, only a duration.
 */
class Tracer
{
  public:
    int
    open(const std::string &name, int parent,
         const std::string &bench = "")
    {
        spans.push_back({name, parent, bench, since(origin), -1.0,
                         -1.0, {}});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int id)
    {
        Span &s = spans[id];
        s.end = since(origin);
        s.dur = s.end - s.start;
    }

    int
    addDuration(const std::string &name, int parent, double dur,
                const std::string &bench)
    {
        spans.push_back({name, parent, bench, -1.0, -1.0, dur, {}});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    rename(int id, const std::string &name)
    {
        spans[id].name = name;
    }

    void
    attr(int id, const std::string &key, double v)
    {
        spans[id].attrs.emplace_back(key, v);
    }

    std::string
    json() const
    {
        std::string out = "[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            JsonLine j;
            j.num("id", static_cast<double>(i))
                .str("name", s.name)
                .num("parent", s.parent)
                .str("bench", s.bench)
                .num("dur", s.dur);
            if (s.start >= 0.0)
                j.num("start", s.start).num("end", s.end);
            JsonLine a;
            for (const auto &[k, v] : s.attrs)
                a.num(k, v);
            j.raw("attrs", a.done());
            out += j.done() + (i + 1 < spans.size() ? ",\n" : "\n");
        }
        return out + "]\n";
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        std::string bench;
        double start;
        double end;
        double dur;
        std::vector<std::pair<std::string, double>> attrs;
    };
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

class LayerPass
{
  public:
    LayerPass(const Sweep &sw, std::uint64_t sd, InstCount len,
              std::string tmp)
        : s(sw), seed(sd), n(len), tmpDir(std::move(tmp))
    {}

    int
    run(const std::string &span_path)
    {
        // The sweep comes first, so that like an e2e rep it starts in
        // a fresh process; every probe runs after it.
        root = t.open("workload:" + s.name, -1);
        std::map<std::string, std::shared_ptr<const L2Stream>> solo;
        std::vector<std::pair<std::string,
                              std::shared_ptr<const L2Stream>>> walked;
        std::map<std::string, bool> recorded;
        std::vector<RunResult> results;
        std::vector<IpcResult> ipcResults;
        for (const std::string &b : s.solo) {
            int bs = t.open("bench:" + b, root, b);
            if (s.ipc) {
                for (ConfigKind k : s.kinds) {
                    int c = t.open(std::string("cpu.") + configName(k),
                                   bs, b);
                    ipcResults.push_back(runIpc(b, k, n, seed));
                    t.close(c);
                    t.attr(c, "instructions", static_cast<double>(
                        ipcResults.back().cpu.instructions));
                }
                t.close(bs);
                continue;
            }
            int f = t.open("frontend.record", bs, b);
            StreamLoadInfo info;
            solo[b] = loadOrRecordStream(b, seed, 0, n, {}, &info);
            t.close(f);
            recorded[b] = !info.fromDiskCache;
            if (info.fromDiskCache)
                t.rename(f, "stream.load");
            streamAttrs(f, *solo[b]);
            std::vector<L2Instance> l2s;
            std::vector<SecondLevelCache *> caches;
            for (ConfigKind k : s.kinds) {
                l2s.push_back(makeConfig(k, solo[b]->values));
                caches.push_back(l2s.back().cache.get());
            }
            std::vector<RunResult> rs = walk(bs, *solo[b], caches, b);
            for (std::size_t k = 0; k < rs.size(); ++k) {
                rs[k].config = configName(s.kinds[k]);
                results.push_back(std::move(rs[k]));
            }
            t.close(bs);
            walked.emplace_back(b, solo[b]);
        }

        for (const MixSpec &mix : s.mixes) {
            int ms = t.open("mix:" + mix.name, root, mix.name);
            std::vector<std::shared_ptr<const L2Stream>> members;
            std::vector<MixMemberInfo> info;
            for (const std::string &m : mix.members) {
                members.push_back(solo.at(m));
                info.push_back({m, solo.at(m)->meas.instructions});
            }
            int c = t.open("mix.compose", ms, mix.name);
            auto merged = composeMixStream(mix.name, members);
            t.close(c);
            streamAttrs(c, *merged);
            std::vector<L2Instance> l2s;
            std::vector<std::unique_ptr<StreamAttributingL2>> wraps;
            std::vector<SecondLevelCache *> caches;
            for (ConfigKind k : s.kinds) {
                l2s.push_back(makeConfig(k, merged->values));
                wraps.push_back(std::make_unique<StreamAttributingL2>(
                    *l2s.back().cache));
                caches.push_back(wraps.back().get());
            }
            std::vector<RunResult> rs =
                walk(ms, *merged, caches, mix.name);
            for (std::size_t k = 0; k < rs.size(); ++k) {
                rs[k].config = configName(s.kinds[k]);
                attachStreamStats(rs[k], *wraps[k], info);
                results.push_back(std::move(rs[k]));
            }
            t.close(ms);
            walked.emplace_back(mix.name, merged);
        }

        for (const std::string &b : s.solo)
            probeGeneration(b);
        for (const auto &[who, st] : walked)
            probeStream(*st, who);

        // Layers the sweep itself bypasses are still measured on
        // this sweep's inputs, as probes outside the sweep spans:
        // the front end where streams came from the disk cache (or,
        // for ipc, were never recorded), and for ipc the gang walk
        // over its two configs.
        for (const std::string &b : s.solo) {
            if (!s.ipc && recorded[b])
                continue;
            int p = t.open("probe.frontend", root, b);
            int f = t.open("frontend.record", p, b);
            auto wl = makeBenchmark(b, seed);
            L2Stream st = recordStream(*wl, seed, 0, n);
            t.close(f);
            streamAttrs(f, st);
            if (s.ipc) {
                std::vector<L2Instance> l2s;
                std::vector<SecondLevelCache *> caches;
                for (ConfigKind k : s.kinds) {
                    l2s.push_back(makeConfig(k, st.values));
                    caches.push_back(l2s.back().cache.get());
                }
                walk(p, st, caches, b);
            }
            t.close(p);
            if (s.ipc)
                probeStream(st, b);
        }
        t.close(root);

        std::ofstream out(span_path);
        out << t.json();
        if (!out) {
            std::fprintf(stderr, "ldis_bench: cannot write %s\n",
                         span_path.c_str());
            return 1;
        }

        std::vector<std::string> digests;
        for (const RunResult &r : results)
            digests.push_back(digestOf(r));
        for (const IpcResult &r : ipcResults)
            digests.push_back(digestOf(r));
        std::printf("%s\n",
                    JsonLine()
                        .str("mode", "trace")
                        .str("sweep", s.name)
                        .num("seed", static_cast<double>(seed))
                        .num("instructions", static_cast<double>(n))
                        .str("spans", span_path)
                        .num("probe_errors", probeErrors)
                        .raw("cells", cellsJson(cellLabels(s), digests))
                        .done()
                        .c_str());
        return 0;
    }

  private:
    void
    streamAttrs(int id, const L2Stream &st)
    {
        t.attr(id, "instructions",
               static_cast<double>(st.meas.instructions));
        t.attr(id, "events", static_cast<double>(st.numEvents()));
        t.attr(id, "bytes", static_cast<double>(st.packedBytes()));
    }

    /** Workload generation alone: fill() for the sweep's length. */
    void
    probeGeneration(const std::string &b)
    {
        int p = t.open("probe.gen", root, b);
        auto wl = makeBenchmark(b, seed);
        std::vector<Access> buf(256);
        std::uint64_t accesses = 0;
        InstCount inst = 0;
        while (inst < n) {
            std::size_t got = wl->fill(buf.data(), buf.size());
            for (std::size_t i = 0; i < got && inst < n; ++i) {
                inst += buf[i].instructions();
                ++accesses;
            }
        }
        t.close(p);
        t.attr(p, "accesses", static_cast<double>(accesses));
        t.attr(p, "instructions", static_cast<double>(inst));
    }

    /**
     * One serial gang walk (no lease hub), with the walk's internal
     * decode and per-lane model time as duration-only children.
     */
    std::vector<RunResult>
    walk(int parent, const L2Stream &st,
         const std::vector<SecondLevelCache *> &caches,
         const std::string &who)
    {
        int g = t.open("gang.walk", parent, who);
        GangReplayInfo info;
        std::vector<RunResult> rs = replayMany(st, caches, &info);
        t.close(g);
        t.attr(g, "events", static_cast<double>(info.events));
        t.attr(g, "configs", static_cast<double>(info.configs));
        t.addDuration("gang.decode", g, info.decodeWallSeconds, who);
        for (std::size_t k = 0; k < s.kinds.size(); ++k) {
            int l = t.addDuration(std::string("l2.") +
                                      configName(s.kinds[k]),
                                  g, info.laneWallSeconds[k], who);
            t.attr(l, "accesses",
                   static_cast<double>(rs[k].l2.accesses));
        }
        return rs;
    }

    /**
     * Stream-format probes on a walked stream: a plain StreamDecoder
     * pass (the gang walk's decode minus its slot-map work), then an
     * LDS2 file write and read-back through the temporary directory.
     */
    void
    probeStream(const L2Stream &st, const std::string &who)
    {
        int d = t.open("probe.decode", root, who);
        StreamDecoder dec(st);
        std::uint64_t sink = 0;
        while (dec.remaining() > 0) {
            StreamEvent e = dec.next();
            sink += e.addr;
            if (e.op == StreamOp::LineMiss &&
                (e.flags & kStreamHasVictim))
                sink += dec.nextVictim().line;
        }
        t.close(d);
        bool decoded = dec.fullyConsumed();
        probeErrors += !decoded;
        t.attr(d, "events", static_cast<double>(st.numEvents()));
        t.attr(d, "bytes", static_cast<double>(st.packedBytes()));
        t.attr(d, "errors", decoded ? 0.0 : 1.0);
        t.attr(d, "checksum", static_cast<double>(sink & 0xFFFF));

        std::string path = tmpDir + "/probe.l2s";
        int w = t.open("probe.write", root, who);
        bool wrote = writeL2Stream(path, st);
        t.close(w);
        std::error_code ec;
        double file_bytes =
            static_cast<double>(std::filesystem::file_size(path, ec));
        t.attr(w, "bytes", ec ? 0.0 : file_bytes);

        L2Stream back;
        int r = t.open("probe.read", root, who);
        bool read = readL2Stream(path, back);
        t.close(r);
        t.attr(r, "bytes", ec ? 0.0 : file_bytes);
        std::filesystem::remove(path, ec);
        bool same = read && back.heads == st.heads &&
                    back.instrBytes == st.instrBytes &&
                    back.addrBytes == st.addrBytes &&
                    back.pcBytes == st.pcBytes &&
                    back.victimBytes == st.victimBytes;
        probeErrors += !(wrote && same);
        t.attr(r, "errors", wrote && same ? 0.0 : 1.0);
    }

    const Sweep &s;
    std::uint64_t seed;
    InstCount n;
    std::string tmpDir;
    Tracer t;
    int root = -1;
    double probeErrors = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("sweep", "fig06 | allcfg | mix | ipc", "fig06");
    args.addOption("seed", "workload seed", "1");
    args.addOption("instructions", "instructions per benchmark",
                   "4000000");
    args.addOption("jobs", "matrix workers (oracle threads)", "1");
    args.addOption("trace", "run the layer pass, spans to this file");
    args.addOption("tmp-dir", "temporary directory of the layer pass",
                   ".");
    args.addOption("regen-expected",
                   "run the direct-engine oracle, digests to this file");
    args.addFlag("calibrate", "time the reference kernel on --jobs threads");
    args.parse(argc, argv);
    std::uint64_t seed = args.getUintInRange("seed", 0, ~0ull >> 1);
    InstCount n = args.getUintInRange("instructions", 1000, 1ull << 40);
    auto jobs =
        static_cast<unsigned>(args.getUintInRange("jobs", 1, 1024));
    Sweep sweep;
    if (!args.ok() || !args.positional().empty() ||
        !makeSweep(args.get("sweep"), sweep)) {
        std::fprintf(stderr, "%s%s",
                     args.ok() ? "" : (args.error() + "\n").c_str(),
                     args.usage("ldis_bench").c_str());
        return 2;
    }
    if (args.has("calibrate"))
        return runCalibration(jobs);
    if (args.has("regen-expected"))
        return runOracle(sweep, seed, n, jobs,
                         args.get("regen-expected"));
    if (args.has("trace"))
        return LayerPass(sweep, seed, n, args.get("tmp-dir"))
            .run(args.get("trace"));
    return runE2e(sweep, seed, n, jobs);
}
