#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <regex>
#include <thread>

#include "hv/system.hh"
#include "sim/trace_sinks.hh"

namespace optimus::exp {

namespace {

/** File-name-safe scenario label. */
std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.';
        out += ok ? c : '_';
    }
    return out;
}

/**
 * Thread-local observer backing --telemetry: for every System a
 * scenario creates, attach a Chrome-trace sink at birth and dump the
 * telemetry tree (JSON) plus the collected trace at death. Installed
 * per worker-scenario, so parallel workers dump independently. A dump
 * that cannot be written is remembered for the run's errors.
 */
class TelemetryDumper : public hv::SystemObserver
{
  public:
    TelemetryDumper(std::string dir, std::string scenario)
        : _dir(std::move(dir)), _scenario(sanitize(scenario))
    {
        _prev = hv::SystemObserver::swap(this);
    }

    ~TelemetryDumper() override { hv::SystemObserver::swap(_prev); }

    void
    systemCreated(hv::System &sys) override
    {
        _sinks[&sys] =
            std::make_unique<sim::ChromeTraceSink>(sys.trace);
    }

    void
    systemDestroyed(hv::System &sys) override
    {
        std::string base = _dir + "/" + _scenario + ".sys" +
                           std::to_string(_count++);
        dump(base + ".telemetry.json",
             [&](std::ostream &os) { sys.telemetry.writeJson(os); });
        auto it = _sinks.find(&sys);
        if (it != _sinks.end()) {
            dump(base + ".trace.json",
                 [&](std::ostream &os) { it->second->write(os); });
            _sinks.erase(it); // detaches while the bus still lives
        }
    }

    /** Dump files that could not be opened, written or closed. */
    const std::vector<std::string> &unwritten() const
    {
        return _unwritten;
    }

  private:
    template <typename Fill>
    void
    dump(const std::string &path, Fill &&fill)
    {
        std::ofstream os(path);
        fill(os);
        os.close();
        if (!os)
            _unwritten.push_back(path);
    }

    std::string _dir;
    std::string _scenario;
    unsigned _count = 0;
    hv::SystemObserver *_prev = nullptr;
    std::map<hv::System *, std::unique_ptr<sim::ChromeTraceSink>>
        _sinks;
    std::vector<std::string> _unwritten;
};

/** Parse @p v, the value of @p flag, as a decimal integer in
 *  [@p lo, @p hi]. Digits only: strtoul would skip blanks, take a sign
 *  (negating "-1" into a huge count) and stop at trailing junk
 *  ("4x"). */
bool
parseCount(const std::string &flag, const char *v, unsigned lo,
           unsigned hi, unsigned &out)
{
    bool ok = *v != '\0';
    std::uint64_t n = 0;
    for (const char *p = v; ok && *p != '\0'; ++p) {
        ok = *p >= '0' && *p <= '9';
        n = n * 10 + static_cast<std::uint64_t>(*p - '0');
        ok = ok && n <= hi; // also keeps n far from overflowing
    }
    if (!ok || n < lo) {
        std::fprintf(stderr, "%s wants an integer in [%u, %u], got '%s'\n",
                     flag.c_str(), lo, hi, v);
        return false;
    }
    out = static_cast<unsigned>(n);
    return true;
}

} // namespace

Runner &
Runner::table(std::string title, std::string paperRef)
{
    _tables.push_back(
        TableSpec{std::move(title), std::move(paperRef), {}, {}, {}});
    return *this;
}

Runner &
Runner::add(std::string name,
            std::function<ResultRow(const RunContext &)> run)
{
    if (_tables.empty())
        table(_bench, "");
    _tables.back().scenarios.push_back(
        Scenario{std::move(name), std::move(run)});
    return *this;
}

Runner &
Runner::note(std::string text)
{
    if (_tables.empty())
        table(_bench, "");
    _tables.back().notes.push_back(std::move(text));
    return *this;
}

Runner &
Runner::footer(TableFooter fn)
{
    if (_tables.empty())
        table(_bench, "");
    _tables.back().footerFn = std::move(fn);
    return *this;
}

bool
Runner::parseArgs(int argc, char **argv, Options &opts)
{
    auto usage = [&](std::FILE *out) {
        std::fprintf(
            out,
            "usage: %s [--jobs N] [--filter REGEX] [--json PATH]\n"
            "          [--telemetry DIR] [--time-scale F]"
            " [--faults PLAN]\n"
            "          [--repeat N] [--list] [--quiet]\n"
            "  --jobs N         scenario worker threads, at most %u\n"
            "  --filter REGEX   run only the rows whose name or table "
            "title\n"
            "                   matches REGEX\n",
            argc > 0 ? argv[0] : "bench", kMaxThreads);
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             a.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (a == "--jobs" || a == "-j") {
            const char *v = val();
            if (!v || !parseCount(a, v, 0, kMaxThreads, opts.jobs))
                return false;
            if (opts.jobs == 0)
                opts.jobs = 1;
        } else if (a == "--filter" || a == "-f") {
            const char *v = val();
            if (!v)
                return false;
            opts.filter = v;
        } else if (a == "--json") {
            const char *v = val();
            if (!v)
                return false;
            opts.jsonPath = v;
        } else if (a == "--telemetry") {
            const char *v = val();
            if (!v)
                return false;
            opts.telemetryDir = v;
        } else if (a == "--time-scale") {
            const char *v = val();
            if (!v)
                return false;
            char *end = nullptr;
            const double scale = std::strtod(v, &end);
            // Written so that NaN, for which every comparison is
            // false, fails too; inf and overflow (1e400) exceed the
            // ceiling. A scale reaches a double-to-Tick cast in
            // RunContext::scaled, so nothing else may pass.
            if (end == v || *end != '\0' ||
                !(scale > 0.0 && scale <= kMaxTimeScale)) {
                std::fprintf(stderr,
                             "--time-scale wants a number in (0, %g], "
                             "got '%s'\n",
                             kMaxTimeScale, v);
                return false;
            }
            opts.timeScale = scale;
        } else if (a == "--faults") {
            const char *v = val();
            if (!v)
                return false;
            opts.faults = v;
        } else if (a == "--repeat") {
            const char *v = val();
            if (!v ||
                !parseCount(a, v, 0, std::numeric_limits<unsigned>::max(),
                            opts.repeat))
                return false;
            if (opts.repeat == 0)
                opts.repeat = 1;
        } else if (a == "--list") {
            opts.list = true;
        } else if (a == "--quiet" || a == "-q") {
            opts.quiet = true;
        } else if (a == "--help" || a == "-h") {
            usage(stdout);
            return false;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            usage(stderr);
            return false;
        }
    }
    return true;
}

int
Runner::run(const Options &opts)
{
    _results.clear();
    _errors.clear();
    _results.resize(_tables.size());
    for (std::size_t t = 0; t < _tables.size(); ++t) {
        _results[t].title = _tables[t].title;
        _results[t].paperRef = _tables[t].paperRef;
    }

    std::optional<std::regex> filter;
    if (!opts.filter.empty()) {
        try {
            filter.emplace(opts.filter);
        } catch (const std::regex_error &e) {
            std::fprintf(stderr, "bad --filter regex: %s\n",
                         e.what());
            return 1;
        }
    }
    auto selected = [&](const TableSpec &t, const Scenario &s) {
        if (!filter)
            return true;
        return std::regex_search(s.name, *filter) ||
               std::regex_search(t.title, *filter);
    };

    struct Job
    {
        std::size_t table;
        std::size_t scen;
    };
    std::vector<Job> jobs;
    for (std::size_t t = 0; t < _tables.size(); ++t)
        for (std::size_t s = 0; s < _tables[t].scenarios.size(); ++s)
            if (selected(_tables[t], _tables[t].scenarios[s]))
                jobs.push_back(Job{t, s});

    if (opts.list) {
        for (const Job &j : jobs)
            std::printf("%s / %s\n", _tables[j.table].title.c_str(),
                        _tables[j.table].scenarios[j.scen].name
                            .c_str());
        return 0;
    }

    // Execute on a pool; each result (or FAILED row) lands in its
    // declaration slot so rendering below is independent of completion
    // order.
    std::vector<ResultRow> slots(jobs.size());
    RunContext ctx;
    ctx.timeScale = opts.timeScale;
    ctx.faults = opts.faults;
    std::atomic<std::size_t> next{0};
    std::mutex errLock;
    auto error = [&](std::string what) {
        std::lock_guard<std::mutex> g(errLock);
        _errors.push_back(std::move(what));
    };
    // A scenario that throws must not take the whole run down: record
    // a FAILED row in its declaration slot (so tables stay aligned),
    // remember the error for the nonzero exit, and keep going.
    auto fail = [&](std::size_t i, const std::string &name,
                    const std::string &what) {
        ResultRow row(name);
        row.str("status", "FAILED: " + what);
        slots[i] = std::move(row);
        error(name + ": " + what);
    };
    // One scenario, opts.repeat times: the deterministic cells must
    // agree across repeats (a mismatch is a determinism regression
    // and fails the scenario), and each wall-clock cell reports the
    // median observation so the text tables stabilize.
    auto execute = [&](const Scenario &s) -> ResultRow {
        ResultRow first = s.run(ctx);
        if (opts.repeat <= 1)
            return first;
        std::vector<ResultRow> reps;
        reps.push_back(std::move(first));
        for (unsigned r = 1; r < opts.repeat; ++r) {
            reps.push_back(s.run(ctx));
            if (!sameResults(reps.front(), reps.back()))
                throw std::runtime_error(
                    "deterministic cells differ between repeat 0 "
                    "and repeat " + std::to_string(r));
        }
        ResultRow out = reps.front();
        for (std::size_t m = 0; m < out.metrics.size(); ++m) {
            if (out.metrics[m].deterministic)
                continue;
            // sameResults aligned the deterministic cells, and the
            // volatile ones come from the same declaration path, so
            // position m carries the same key in every repeat.
            std::vector<Metric> obs;
            for (const ResultRow &rr : reps)
                if (m < rr.metrics.size() &&
                    rr.metrics[m].key == out.metrics[m].key)
                    obs.push_back(rr.metrics[m]);
            std::sort(obs.begin(), obs.end(),
                      [](const Metric &a, const Metric &b) {
                          return a.value < b.value;
                      });
            out.metrics[m] = obs[(obs.size() - 1) / 2];
        }
        return out;
    };
    auto worker = [&]() {
        for (;;) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            const Job &j = jobs[i];
            const Scenario &s = _tables[j.table].scenarios[j.scen];
            std::optional<TelemetryDumper> dumper;
            try {
                if (!opts.telemetryDir.empty())
                    dumper.emplace(opts.telemetryDir,
                                   "t" + std::to_string(j.table) + "." +
                                       s.name);
                slots[i] = execute(s);
            } catch (const std::exception &e) {
                fail(i, s.name, e.what());
            } catch (...) {
                fail(i, s.name, "unknown exception");
            }
            // Like an unwritten --json file, a lost dump fails the run.
            if (dumper)
                for (const std::string &path : dumper->unwritten())
                    error("--telemetry " + path + ": cannot write");
        }
    };

    if (!opts.telemetryDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.telemetryDir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create %s: %s\n",
                         opts.telemetryDir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    auto t0 = std::chrono::steady_clock::now();
    unsigned nthreads = opts.jobs;
    if (nthreads > jobs.size())
        nthreads = static_cast<unsigned>(jobs.size());
    if (nthreads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned i = 0; i < nthreads; ++i)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    for (std::size_t i = 0; i < jobs.size(); ++i)
        _results[jobs[i].table].rows.push_back(std::move(slots[i]));
    for (TableResult &tr : _results) {
        Fingerprint f;
        f.add(tr.title);
        for (const ResultRow &r : tr.rows)
            f.add(r.fingerprint());
        tr.fingerprint = f.value();
    }

    if (!opts.quiet)
        render();
    // An unwritten results file is a failed run: a caller that checks
    // only the exit code must not go on to read a stale or absent file.
    if (!opts.jsonPath.empty() && !writeJson(opts.jsonPath))
        _errors.push_back("--json " + opts.jsonPath + ": cannot write");

    std::fprintf(stderr, "[%s] %zu scenario(s), jobs=%u, %.0f ms\n",
                 _bench.c_str(), jobs.size(), opts.jobs, wall_ms);
    for (const std::string &e : _errors)
        std::fprintf(stderr, "[%s] FAILED %s\n", _bench.c_str(),
                     e.c_str());
    return static_cast<int>(_errors.size());
}

int
Runner::main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts))
        return 2;
    return run(opts);
}

void
Runner::render() const
{
    for (const TableResult &tr : _results) {
        if (tr.rows.empty())
            continue;
        std::printf("\n====================================="
                    "===========================\n");
        if (tr.paperRef.empty())
            std::printf("%s\n", tr.title.c_str());
        else
            std::printf("%s\n  (reproduces %s)\n",
                        tr.title.c_str(), tr.paperRef.c_str());
        std::printf("-------------------------------------"
                    "---------------------------\n");

        // Column set: union of metric keys in first-appearance order.
        std::vector<std::string> cols;
        for (const ResultRow &r : tr.rows)
            for (const Metric &m : r.metrics) {
                bool seen = false;
                for (const std::string &c : cols)
                    if (c == m.key) {
                        seen = true;
                        break;
                    }
                if (!seen)
                    cols.push_back(m.key);
            }
        auto cell = [](const ResultRow &r,
                       const std::string &key) -> const Metric * {
            for (const Metric &m : r.metrics)
                if (m.key == key)
                    return &m;
            return nullptr;
        };

        std::size_t lw = std::strlen("scenario");
        for (const ResultRow &r : tr.rows)
            lw = std::max(lw, r.label.size());
        std::vector<std::size_t> w(cols.size());
        for (std::size_t c = 0; c < cols.size(); ++c) {
            w[c] = cols[c].size();
            for (const ResultRow &r : tr.rows)
                if (const Metric *m = cell(r, cols[c]))
                    w[c] = std::max(w[c], m->text.size());
        }

        std::printf("%-*s", static_cast<int>(lw), "scenario");
        for (std::size_t c = 0; c < cols.size(); ++c)
            std::printf("  %*s", static_cast<int>(w[c]),
                        cols[c].c_str());
        std::printf("\n");
        for (const ResultRow &r : tr.rows) {
            std::printf("%-*s", static_cast<int>(lw),
                        r.label.c_str());
            for (std::size_t c = 0; c < cols.size(); ++c) {
                const Metric *m = cell(r, cols[c]);
                std::printf("  %*s", static_cast<int>(w[c]),
                            m ? m->text.c_str() : "-");
            }
            std::printf("\n");
        }

        const TableSpec *spec = nullptr;
        for (const TableSpec &t : _tables)
            if (t.title == tr.title) {
                spec = &t;
                break;
            }
        if (spec) {
            for (const std::string &n : spec->notes)
                std::printf("%s\n", n.c_str());
            if (spec->footerFn)
                for (const std::string &line :
                     spec->footerFn(tr.rows))
                    std::printf("%s\n", line.c_str());
        }
        std::printf("table fingerprint: %016" PRIx64 "\n",
                    tr.fingerprint);
    }
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace

bool
Runner::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"tables\": [",
                 jsonEscape(_bench).c_str());
    bool firstT = true;
    for (const TableResult &tr : _results) {
        if (tr.rows.empty())
            continue;
        std::fprintf(f, "%s\n    {\n", firstT ? "" : ",");
        firstT = false;
        std::fprintf(f, "      \"title\": \"%s\",\n",
                     jsonEscape(tr.title).c_str());
        std::fprintf(f, "      \"paper_ref\": \"%s\",\n",
                     jsonEscape(tr.paperRef).c_str());
        std::fprintf(f,
                     "      \"fingerprint\": \"%016" PRIx64
                     "\",\n      \"rows\": [",
                     tr.fingerprint);
        bool firstR = true;
        for (const ResultRow &r : tr.rows) {
            std::fprintf(f, "%s\n        {\"label\": \"%s\", "
                            "\"fingerprint\": \"%016" PRIx64
                            "\", \"metrics\": {",
                         firstR ? "" : ",",
                         jsonEscape(r.label).c_str(),
                         r.fingerprint());
            firstR = false;
            bool firstM = true;
            for (const Metric &m : r.metrics) {
                if (!m.deterministic)
                    continue; // wall-clock: JSON stays reproducible
                // JSON has no inf or nan: a non-finite cell is null.
                if (m.numeric && !std::isfinite(m.value))
                    std::fprintf(f, "%s\"%s\": null",
                                 firstM ? "" : ", ",
                                 jsonEscape(m.key).c_str());
                else if (m.numeric)
                    std::fprintf(f, "%s\"%s\": %.17g",
                                 firstM ? "" : ", ",
                                 jsonEscape(m.key).c_str(),
                                 m.value);
                else
                    std::fprintf(f, "%s\"%s\": \"%s\"",
                                 firstM ? "" : ", ",
                                 jsonEscape(m.key).c_str(),
                                 jsonEscape(m.text).c_str());
                firstM = false;
            }
            std::fprintf(f, "}}");
        }
        std::fprintf(f, "\n      ]\n    }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    const bool written = !std::ferror(f);
    return std::fclose(f) == 0 && written;
}

} // namespace optimus::exp
