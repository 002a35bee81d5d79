// microscope_cli — config-driven scenario runner and diagnoser.
//
// Runs the paper's 16-NF Fig. 10 topology with CAIDA-like traffic, injects
// faults described on the command line, and prints the operator diagnosis
// report (optionally persisting the raw trace for later offline analysis).
//
// Usage:
//   microscope_cli [options]
//     --duration <ms>                 simulated traffic length (default 150)
//     --rate <mpps>                   aggregate rate (default 1.2)
//     --seed <n>                      RNG seed (default 1)
//     --burst t=<ms>,n=<pkts>         inject a traffic burst (repeatable)
//     --interrupt nf=<name>,t=<ms>,len=<us>   inject an interrupt (repeatable)
//     --bug fw=<index>,t=<ms>,n=<pkts>        firewall bug + trigger flow
//     --noise <per-sec>               natural noise rate per NF (default 0)
//     --threshold <us>                victim latency threshold (default 200)
//     --save <path>                   persist the collector trace
//     --save-stream <path>            persist it time-interleaved (tailable)
//     --follow                        stream the trace through the online
//                                     engine (windowed diagnosis) instead of
//                                     one offline pass
//     --follow-file <path>            tail an existing stream trace (skips
//                                     the simulation entirely)
//     --strict-decode                 in --follow-file mode, fail fast with
//                                     a typed error on the first corrupt
//                                     record instead of counting + resyncing
//                                     (exit code 3)
//     --window <ms>                   online window size (default 10)
//     --agg-memory-budget <bytes>     follow modes: cap the live culprit
//                                     aggregation at this byte budget by
//                                     switching to the count-min/heavy-
//                                     hitter sketch aggregator (suffixes
//                                     k/m/g accepted; 0 = exact, the
//                                     default; see DESIGN.md §14)
//     --patterns                      also run pattern aggregation
//     --json                          emit the report as JSON
//     --metrics[=json]                after the report, dump the pipeline's
//                                     self-observability metrics (human text
//                                     or stable JSON; see src/obs/)
//     --metrics-every <n>             in --follow mode, also dump metrics to
//                                     stderr every n closed windows
//                                     (default 10; 0 disables)
//     --trace-out <path>              record a pipeline flight-recorder
//                                     timeline and write it as Chrome
//                                     trace-event JSON (open in Perfetto /
//                                     chrome://tracing)
//     --http <addr:port|:port>        serve the live introspection plane
//                                     (/metrics /healthz /readyz /version
//                                     /windows /explain) while the run
//                                     executes; binds 127.0.0.1 unless
//                                     addr is given (see DESIGN.md §15)
//     --sample-every <ms>             health watchdog tick cadence
//                                     (default 1000; needs --http)
//     --health-lag-ms <deg>,<unh>     watermark-lag-p95 health thresholds
//                                     in ms (default 100,1000)
//     --health-drops <deg>,<unh>      dropped batches+records per second
//                                     health thresholds (default 1,50)
//     --health-recover-ticks <n>      consecutive calm ticks before a
//                                     health downgrade (default 3)
//     --http-linger <ms>              keep serving (and ticking) this long
//                                     after the run finishes, so recovery
//                                     to healthy is observable
//     --pace <ms>                     follow modes: sleep this long per
//                                     closed window, so a replay is slow
//                                     enough to query live
//     --max-retained <n>              follow modes: backpressure cap on
//                                     retained batches (0 = unlimited);
//                                     small values force visible drops
//     --explain top=<k>|victim=<journey>|flow=<a.b.c.d>
//                                     offline mode only: instead of the
//                                     report, print the full provenance of
//                                     the selected victims' diagnoses (the
//                                     eqn (1)-(2) inputs, per-path timespans
//                                     and every attribution share); --json
//                                     switches to provenance JSON
//     --version                       print build provenance and exit
//
// Examples:
//   microscope_cli --duration 200 --burst t=60,n=2000 --patterns
//   microscope_cli --interrupt nf=nat1,t=60,len=800 --follow --window 20
//   microscope_cli --save-stream trace.bin && microscope_cli --follow-file trace.bin
//   microscope_cli --metrics=json | tail -1 | python3 -m json.tool
//   microscope_cli --follow --http :9100 --pace 20 --http-linger 10000 &
//   curl -s localhost:9100/metrics | head

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "microscope/microscope.hpp"

using namespace microscope;

namespace {

/// Parse "k1=v1,k2=v2" into a map.
std::map<std::string, std::string> parse_kv(const std::string& s) {
  std::map<std::string, std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) continue;
    out[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return out;
}

struct BurstSpec {
  TimeNs t;
  std::size_t n;
};
struct InterruptSpec {
  std::string nf;
  TimeNs t;
  DurationNs len;
};
struct BugSpec {
  int fw_index;
  TimeNs t;
  std::size_t n;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg << "\nsee the header comment for usage\n";
  std::exit(2);
}

/// Parse the value `s` of a numeric flag and scale it by `scale` into a T;
/// exits with a usage error unless it is a finite number with nothing after
/// it, at least `min` (in the flag's own unit), and in T's range once
/// scaled.
template <typename T = double>
T number_or_die(const std::string& flag, const std::string& s,
                double min = 0.0, double scale = 1.0) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (s.empty() || *end != '\0' || !std::isfinite(v) || v < min ||
      v * scale >= limit) {
    char range[64];
    std::snprintf(range, sizeof(range), "[%g, %g)", min, limit / scale);
    usage_error(flag + " wants a number in " + range + ", got '" + s + "'");
  }
  return static_cast<T>(v * scale);
}

/// Field `key` of a --burst/--interrupt/--bug spec, checked like a flag
/// (>= 0), or `fallback` when it is absent; scaled by `scale`.
template <typename T>
T spec_num_or_die(const std::string& flag,
                  const std::map<std::string, std::string>& kv,
                  const std::string& key, double fallback, double scale = 1.0) {
  const auto it = kv.find(key);
  if (it == kv.end()) return static_cast<T>(fallback * scale);
  return number_or_die<T>(flag + " " + key + "=", it->second, 0.0, scale);
}

/// Parse a byte count with an optional k/m/g suffix (binary multiples).
std::size_t parse_bytes_or_die(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v < 0) usage_error("bad byte count " + s);
  double mult = 1.0;
  if (*end == 'k' || *end == 'K') mult = 1024.0;
  else if (*end == 'm' || *end == 'M') mult = 1024.0 * 1024.0;
  else if (*end == 'g' || *end == 'G') mult = 1024.0 * 1024.0 * 1024.0;
  else if (*end != '\0') usage_error("bad byte count " + s);
  return static_cast<std::size_t>(v * mult);
}

/// Parse a "<degraded>,<unhealthy>" health threshold pair and scale both
/// by `scale`; exits with a usage error unless each is a finite number >= 0.
std::pair<double, double> parse_thresholds_or_die(const std::string& flag,
                                                  const std::string& s,
                                                  double scale) {
  const std::string msg =
      flag + " wants <degraded>,<unhealthy>, finite numbers >= 0";
  const auto comma = s.find(',');
  if (comma == std::string::npos) usage_error(msg);
  const std::string parts[2] = {s.substr(0, comma), s.substr(comma + 1)};
  double out[2];
  for (int i = 0; i < 2; ++i) {
    char* end = nullptr;
    out[i] = std::strtod(parts[i].c_str(), &end) * scale;
    if (parts[i].empty() || *end != '\0' || !std::isfinite(out[i]) ||
        out[i] < 0)
      usage_error(msg);
  }
  return {out[0], out[1]};
}

const char* culprit_name(const autofocus::NfCatalog& catalog, NodeId node) {
  return node < catalog.node_names.size() ? catalog.node_names[node].c_str()
                                          : "?";
}

void print_window_line(const online::WindowResult& w) {
  std::cout << "window #" << w.index << " [" << to_ms(w.start) << ", "
            << to_ms(w.end) << ") ms: " << w.journeys << " journeys, "
            << w.diagnoses.size() << " victims"
            << (w.idle_forced ? " (idle-forced)" : "") << "\n";
}

/// Live per-window observer: prints each window as it closes, dumps a
/// metrics snapshot to stderr every `metrics_every` windows (through the
/// same obs::render_text path the /metrics endpoint uses, so export cost
/// lands in obs.render_ns either way), and sleeps `pace_ms` per window so
/// a replay can be queried while it runs.
online::WindowCallback follow_observer(std::size_t metrics_every,
                                       std::size_t pace_ms) {
  auto seen = std::make_shared<std::size_t>(0);
  return [metrics_every, pace_ms, seen](const online::WindowResult& w) {
    print_window_line(w);
    if (metrics_every > 0 && ++*seen % metrics_every == 0) {
      std::cerr << "--- metrics after " << *seen << " windows ---\n"
                << obs::render_text();
    }
    if (pace_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
  };
}

/// With --agg-memory-budget: one line of sketch internals (table shape,
/// fill, evictions, current error bound). No-op in exact mode.
void print_sketch_summary(const online::CulpritAggregator& agg) {
  const auto* sk = dynamic_cast<const sketch::SketchAggregator*>(&agg);
  if (!sk) return;
  const sketch::SketchStats st = sk->stats();
  std::cout << "sketch: budget " << st.budget_bytes << " B, cm " << st.width
            << "x" << st.depth << ", tracked " << st.tracked_size << "/"
            << st.tracked_capacity << ", board " << sk->board_size() << "/"
            << sk->board_capacity() << ", evicted " << st.hh_evicted
            << " hh + " << sk->board_evicted()
            << " board, est err <= " << st.est_error_bound
            << "\n";
}

/// Stream counters and the live culprit board (windows were already
/// printed live by follow_observer).
void print_follow_summary(const online::OnlineEngine& eng,
                          const autofocus::NfCatalog& catalog) {
  const online::OnlineStats st = eng.stats();
  std::cout << "\nstream: " << st.batches_ingested << " batches ("
            << st.packets_ingested << " pkts), " << st.windows_closed
            << " windows closed, " << st.late_dropped_batches
            << " late-dropped, " << st.ring_dropped_records
            << " ring-dropped\n";
  if (st.wire_decode_dropped > 0) {
    const collector::DecodeStats& ds = eng.decode_stats();
    std::cout << "decode faults: " << st.wire_decode_dropped
              << " records dropped (";
    bool first = true;
    for (std::uint8_t k = 0; k < 8; ++k) {
      const auto kind = static_cast<collector::DecodeErrorKind>(k);
      if (ds.count(kind) == 0) continue;
      if (!first) std::cout << ", ";
      std::cout << collector::to_string(kind) << " " << ds.count(kind);
      first = false;
    }
    std::cout << "), " << ds.resync_bytes_skipped << " bytes resync-skipped\n";
  }
  const auto top = eng.aggregator().top();
  if (!top.empty()) {
    std::cout << "live culprits (decayed):\n";
    for (const auto& t : top)
      std::cout << "  " << culprit_name(catalog, t.culprit.node) << " ["
                << core::to_string(t.culprit.kind) << "]  score " << t.score
                << "  (" << t.windows_seen << " windows)\n";
  }
  print_sketch_summary(eng.aggregator());
}

/// Parse a dotted quad; exits with a usage error on malformed input.
std::uint32_t parse_ipv4_or_die(const std::string& s) {
  unsigned a, b, c, d;
  char tail;
  if (std::sscanf(s.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255)
    usage_error("bad IPv4 address " + s);
  return make_ipv4(a, b, c, d);
}

/// --explain: re-diagnose the selected victims with provenance capture and
/// print the attribution trees (or provenance JSON with --json).
void run_explain(const core::Diagnoser& diag,
                 const std::vector<core::Victim>& victims,
                 const std::string& spec,
                 const autofocus::NfCatalog& catalog, bool json) {
  std::vector<core::Victim> sel;
  if (spec.rfind("top=", 0) == 0) {
    const int k = std::atoi(spec.c_str() + 4);
    if (k <= 0) usage_error("--explain top=<k> needs k >= 1");
    // Rank victims by total diagnosed impact, then explain the heaviest.
    std::vector<std::pair<double, std::size_t>> impact;
    for (std::size_t i = 0; i < victims.size(); ++i) {
      double total = 0.0;
      for (const core::CausalRelation& r : diag.diagnose(victims[i]).relations)
        total += r.score;
      impact.emplace_back(total, i);
    }
    std::stable_sort(
        impact.begin(), impact.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    const auto take = std::min(impact.size(), static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < take; ++i)
      sel.push_back(victims[impact[i].second]);
  } else if (spec.rfind("victim=", 0) == 0) {
    const auto jid = static_cast<std::uint32_t>(std::atoll(spec.c_str() + 7));
    for (const core::Victim& v : victims)
      if (v.journey == jid) sel.push_back(v);
    if (sel.empty())
      usage_error("--explain victim=" + std::to_string(jid) +
                  ": no victim with that journey id (see the report)");
  } else if (spec.rfind("flow=", 0) == 0) {
    const std::uint32_t ip = parse_ipv4_or_die(spec.substr(5));
    for (const core::Victim& v : victims)
      if (v.flow.src_ip == ip || v.flow.dst_ip == ip) sel.push_back(v);
    if (sel.empty()) usage_error("--explain flow=...: no victim on that flow");
  } else {
    usage_error("--explain wants top=<k>, victim=<journey> or flow=<ip>");
  }

  if (json) std::cout << "[";
  for (std::size_t i = 0; i < sel.size(); ++i) {
    core::Provenance prov;
    diag.diagnose(sel[i], &prov);
    if (json) {
      std::cout << (i > 0 ? ",\n" : "\n")
                << core::provenance_to_json(prov, catalog.node_names);
    } else {
      if (i > 0) std::cout << "\n";
      std::cout << core::render_explain_tree(prov, catalog.node_names);
    }
  }
  if (json) std::cout << "\n]\n";
}

}  // namespace

int main(int argc, char** argv) {
  DurationNs duration = 150_ms;
  double rate = 1.2;
  std::uint64_t seed = 1;
  double noise = 0.0;
  DurationNs threshold = 200_us;
  std::string save_path;
  std::string save_stream_path;
  std::string follow_file;
  bool follow = false;
  bool strict_decode = false;
  DurationNs window = 10_ms;
  bool want_patterns = false;
  bool want_json = false;
  bool want_metrics = false;
  bool metrics_json = false;
  std::size_t metrics_every = 10;
  std::string trace_out;
  std::string explain_spec;
  std::size_t agg_memory_budget = 0;
  std::string http_spec;
  std::size_t sample_every_ms = 1000;
  std::size_t http_linger_ms = 0;
  std::size_t pace_ms = 0;
  std::size_t max_retained = 0;
  obs::HealthOptions health_opts;
  std::vector<BurstSpec> bursts;
  std::vector<InterruptSpec> interrupts;
  std::optional<BugSpec> bug;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--duration") {
      duration = number_or_die<DurationNs>(arg, next(), 0.0, 1e6);
    } else if (arg == "--rate") {
      rate = number_or_die(arg, next());
    } else if (arg == "--seed") {
      seed = number_or_die<std::uint64_t>(arg, next());
    } else if (arg == "--noise") {
      noise = number_or_die(arg, next());
    } else if (arg == "--threshold") {
      threshold = number_or_die<DurationNs>(arg, next(), 0.0, 1e3);
    } else if (arg == "--save") {
      save_path = next();
    } else if (arg == "--save-stream") {
      save_stream_path = next();
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--follow-file") {
      follow_file = next();
      follow = true;
    } else if (arg == "--strict-decode") {
      strict_decode = true;
    } else if (arg == "--window") {
      // At least 1 ns: a window rounding to 0 ns never closes.
      window = number_or_die<DurationNs>(arg, next(), 1e-6, 1e6);
    } else if (arg == "--agg-memory-budget") {
      agg_memory_budget = parse_bytes_or_die(next());
    } else if (arg == "--patterns") {
      want_patterns = true;
    } else if (arg == "--json") {
      want_json = true;
    } else if (arg == "--metrics") {
      want_metrics = true;
    } else if (arg == "--metrics=json") {
      want_metrics = true;
      metrics_json = true;
    } else if (arg == "--metrics=text") {
      want_metrics = true;
    } else if (arg == "--metrics-every") {
      metrics_every = number_or_die<std::size_t>(arg, next());
    } else if (arg == "--http") {
      http_spec = next();
    } else if (arg == "--sample-every") {
      sample_every_ms = number_or_die<std::size_t>(arg, next(), 1.0);
    } else if (arg == "--http-linger") {
      http_linger_ms = number_or_die<std::size_t>(arg, next());
    } else if (arg == "--pace") {
      pace_ms = number_or_die<std::size_t>(arg, next());
    } else if (arg == "--max-retained") {
      max_retained = number_or_die<std::size_t>(arg, next());
    } else if (arg == "--health-lag-ms") {
      std::tie(health_opts.lag_p95_degraded_ns,
               health_opts.lag_p95_unhealthy_ns) =
          parse_thresholds_or_die(arg, next(), 1e6);
    } else if (arg == "--health-drops") {
      std::tie(health_opts.drop_rate_degraded,
               health_opts.drop_rate_unhealthy) =
          parse_thresholds_or_die(arg, next(), 1.0);
    } else if (arg == "--health-recover-ticks") {
      health_opts.recover_ticks = number_or_die<int>(arg, next(), 1.0);
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--explain") {
      explain_spec = next();
    } else if (arg == "--version") {
      std::cout << obs::build_info_text();
      return 0;
    } else if (arg == "--burst") {
      const auto kv = parse_kv(next());
      bursts.push_back({spec_num_or_die<TimeNs>(arg, kv, "t", 50, 1e6),
                        spec_num_or_die<std::size_t>(arg, kv, "n", 1500)});
    } else if (arg == "--interrupt") {
      const auto kv = parse_kv(next());
      InterruptSpec spec;
      spec.nf = kv.count("nf") ? kv.at("nf") : "nat1";
      spec.t = spec_num_or_die<TimeNs>(arg, kv, "t", 50, 1e6);
      spec.len = spec_num_or_die<DurationNs>(arg, kv, "len", 800, 1e3);
      interrupts.push_back(spec);
    } else if (arg == "--bug") {
      const auto kv = parse_kv(next());
      bug = BugSpec{spec_num_or_die<int>(arg, kv, "fw", 1),
                    spec_num_or_die<TimeNs>(arg, kv, "t", 60, 1e6),
                    spec_num_or_die<std::size_t>(arg, kv, "n", 120)};
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the header comment of examples/microscope_cli.cpp\n";
      return 0;
    } else {
      usage_error("unknown option " + arg);
    }
  }
  if (!explain_spec.empty() && follow)
    usage_error(
        "--explain needs the offline pass (drop --follow/--follow-file)");
  // --explain --json promises machine-readable stdout: route the setup
  // narrative to stderr so the provenance array can be piped straight into
  // a JSON parser.
  std::ostream& note =
      (!explain_spec.empty() && want_json) ? std::cerr : std::cout;

  // ---- build + inject + run ----
  sim::Simulator simulator;
  collector::Collector col;
  eval::Fig10Options fopt;
  fopt.seed = seed;
  auto net = eval::build_fig10(simulator, &col, fopt);
  nf::Topology& topo = *net.topo;

  online::OnlineOptions oopt;
  oopt.window_ns = window;
  oopt.slack_ns = 5_ms;
  oopt.latency_threshold = threshold;
  oopt.reconstruct.prop_delay = topo.options().prop_delay;
  // A tailed file crossed a process/disk boundary: validate timestamps and
  // honor --strict-decode. (In-process replay never sets a wire decoder up.)
  oopt.decode.policy = strict_decode ? collector::DecodePolicy::kStrict
                                     : collector::DecodePolicy::kLenient;
  oopt.decode.max_ts_regression_ns = 10_ms;
  oopt.max_retained_batches = max_retained;
  if (agg_memory_budget > 0) {
    oopt.agg_memory_budget = agg_memory_budget;
    oopt.agg_catalog = eval::make_catalog(topo);
  }

  // --metrics lists the stages this invocation built: each registers its
  // names when constructed.
  auto dump_metrics = [&] {
    if (!want_metrics) return;
    std::cout << (metrics_json ? obs::render_json() + "\n"
                               : obs::render_text());
  };

  // ---- live introspection plane (--http, DESIGN.md §15) ----
  // Declaration order is the shutdown contract: the server (last) dies
  // first, and only then does the watchdog it reads stop ticking.
  std::shared_ptr<obs::IntrospectionHub> hub;
  std::unique_ptr<obs::HealthWatchdog> watchdog;
  std::unique_ptr<obs::HttpServer> http_server;
  if (!http_spec.empty()) {
    obs::HttpOptions hopt;
    std::string err;
    if (!obs::parse_http_address(http_spec, hopt, &err)) usage_error(err);
    hub = std::make_shared<obs::IntrospectionHub>();
    oopt.introspection = hub;
    if (oopt.agg_catalog.node_names.empty())
      oopt.agg_catalog = eval::make_catalog(topo);
    watchdog = std::make_unique<obs::HealthWatchdog>(obs::Registry::global(),
                                                     health_opts);
    http_server = std::make_unique<obs::HttpServer>(hopt);
    obs::IntrospectionWiring wiring;
    wiring.health = watchdog.get();
    wiring.hub = hub.get();
    obs::install_introspection_routes(*http_server, wiring);
    if (!http_server->start(&err)) usage_error(err);
    watchdog->start(std::chrono::milliseconds(sample_every_ms));
    std::cerr << "introspection plane on http://" << http_server->address()
              << " (/metrics /healthz /readyz /version /windows /explain)\n";
  }
  auto shutdown_introspection = [&] {
    if (!http_server) return;
    if (http_linger_ms > 0) {
      std::cerr << "lingering " << http_linger_ms
                << " ms for live queries on http://" << http_server->address()
                << " ...\n";
      std::this_thread::sleep_for(std::chrono::milliseconds(http_linger_ms));
    }
    watchdog->stop();
    http_server->stop();
    http_server.reset();
  };

  // Flight recorder: on when --trace-out asked for it. Exported at the end
  // of whichever pipeline ran (the drain resets the recorder).
  if (!trace_out.empty()) obs::TraceRecorder::global().enable();
  auto write_traces = [&] {
    if (trace_out.empty()) return;
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    const std::uint64_t dropped = rec.dropped();
    const auto events = rec.drain();
    std::ofstream f(trace_out, std::ios::binary);
    if (!f) usage_error("cannot write " + trace_out);
    f << obs::export_chrome_trace(events, dropped);
    std::cout << "chrome trace written to " << trace_out << " ("
              << events.size() << " events, " << dropped << " dropped)\n";
  };

  if (!follow_file.empty()) {
    // Tail a previously saved stream trace: no simulation at all. The
    // node table in the file header registers the nodes on the engine.
    const auto catalog = eval::make_catalog(topo);
    online::OnlineEngine eng(trace::graph_view(topo), topo.peak_rates(), oopt);
    online::TraceFileTailer tailer(follow_file, eng);
    std::vector<online::WindowResult> windows;
    try {
      windows = tailer.drain_to_end(
          1 << 12,
          follow_observer(want_metrics ? metrics_every : 0, pace_ms));
    } catch (const collector::DecodeError& e) {
      std::cerr << "error: " << follow_file << ": " << e.what()
                << "\nhint: rerun without --strict-decode to salvage the "
                   "readable records\n";
      return 3;
    }
    print_follow_summary(eng, catalog);
    std::vector<core::Diagnosis> diagnoses;
    for (const online::WindowResult& w : windows)
      for (const core::Diagnosis& d : w.diagnoses) diagnoses.push_back(d);
    std::vector<autofocus::Pattern> patterns;
    if (want_patterns) patterns = eng.aggregator().patterns(catalog);
    if (want_json) {
      std::cout << eval::report_to_json(diagnoses, catalog, patterns) << "\n";
    } else {
      eval::print_diagnosis_report(std::cout, diagnoses, catalog, patterns);
    }
    shutdown_introspection();
    dump_metrics();
    write_traces();
    return 0;
  }

  nf::CaidaLikeOptions topts;
  topts.duration = duration;
  topts.rate_mpps = rate;
  topts.seed = seed;
  topts.num_flows = 3000;
  auto traffic = nf::generate_caida_like(topts);

  Rng rng(seed ^ 0xC11);
  std::uint32_t tag = 0;
  for (const BurstSpec& b : bursts) {
    FiveTuple flow;
    flow.src_ip = make_ipv4(10, 99, 0, static_cast<std::uint32_t>(
                                           1 + rng.uniform_u64(250)));
    flow.dst_ip = make_ipv4(172, 31, 0, static_cast<std::uint32_t>(
                                            1 + rng.uniform_u64(250)));
    flow.src_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000));
    flow.dst_port = 443;
    flow.proto = 6;
    nf::inject_burst(traffic, flow, b.t, b.n, 120, ++tag);
    note << "burst @" << to_ms(b.t) << " ms: " << b.n << " pkts of "
              << format_five_tuple(flow) << "\n";
  }

  nf::InjectionLog log;
  for (const InterruptSpec& spec : interrupts) {
    NodeId target = kInvalidNode;
    for (const NodeId id : net.all_nfs())
      if (topo.name(id) == spec.nf) target = id;
    if (target == kInvalidNode) usage_error("unknown NF name " + spec.nf);
    nf::schedule_interrupt(simulator, topo.nf(target), spec.t, spec.len, log);
    note << "interrupt @" << to_ms(spec.t) << " ms: " << spec.nf << " for "
              << to_us(spec.len) << " us\n";
  }

  if (bug) {
    if (bug->fw_index < 0 ||
        bug->fw_index >= static_cast<int>(net.firewalls.size()))
      usage_error("bug fw index out of range");
    const NodeId fw = net.firewalls[static_cast<std::size_t>(bug->fw_index)];
    nf::FirewallBug fb;
    fb.match = eval::bug_firewall_matcher();
    fb.slow_service_ns = 20_us;
    dynamic_cast<nf::Firewall&>(topo.nf(fw)).set_bug(fb);
    const auto triggers = eval::bug_trigger_flows(net, fw);
    nf::inject_burst(traffic, triggers[0], bug->t, bug->n, 5_us, ++tag);
    note << "bug @" << topo.name(fw) << ", triggers @" << to_ms(bug->t)
              << " ms: " << bug->n << " pkts\n";
  }

  if (noise > 0) {
    for (const NodeId id : net.all_nfs()) {
      nf::NoiseOptions nopt;
      nopt.interrupts_per_sec = noise;
      nopt.seed = seed ^ id;
      nf::schedule_natural_noise(simulator, topo.nf(id), nopt, duration, log);
    }
  }

  topo.source(net.source).load(std::move(traffic));
  simulator.run_until(duration + 20_ms);
  note << "simulated " << to_ms(duration) << " ms of traffic; collected "
            << col.compressed_bytes() / 1024 << " KiB of records\n\n";

  if (!save_path.empty()) {
    collector::save_trace(col, save_path);
    note << "trace saved to " << save_path << "\n";
  }
  if (!save_stream_path.empty()) {
    collector::save_trace_stream(col, save_stream_path);
    note << "stream trace saved to " << save_stream_path
              << " (tailable with --follow-file)\n";
  }

  // ---- diagnose + report ----
  const auto catalog = eval::make_catalog(topo);
  std::vector<core::Diagnosis> diagnoses;
  std::vector<autofocus::Pattern> patterns;
  if (follow) {
    // Stream the collected records through the online engine instead of
    // one offline pass: windowed diagnosis + live culprit board.
    online::OnlineEngine eng(trace::graph_view(topo), topo.peak_rates(), oopt);
    const auto windows = online::replay_collector(
        col, eng, 64, true,
        follow_observer(want_metrics ? metrics_every : 0, pace_ms));
    print_follow_summary(eng, catalog);
    std::cout << "\n";
    for (const online::WindowResult& w : windows)
      for (const core::Diagnosis& d : w.diagnoses) diagnoses.push_back(d);
    if (want_patterns) patterns = eng.aggregator().patterns(catalog);
  } else {
    trace::ReconstructOptions ropt;
    ropt.prop_delay = topo.options().prop_delay;
    const auto rt = trace::reconstruct(col, trace::graph_view(topo), ropt);
    core::Diagnoser diag(rt, topo.peak_rates());
    const auto victims = diag.latency_victims_by_threshold(threshold);

    if (!explain_spec.empty()) {
      run_explain(diag, victims, explain_spec, catalog, want_json);
      shutdown_introspection();
      dump_metrics();
      write_traces();
      return 0;
    }

    for (const core::Victim& v : victims)
      diagnoses.push_back(diag.diagnose(v));

    if (want_patterns) {
      patterns = autofocus::aggregate_patterns(
          autofocus::flatten_diagnoses(diagnoses), catalog, {});
    }
  }
  if (want_json) {
    std::cout << eval::report_to_json(diagnoses, catalog, patterns) << "\n";
  } else {
    eval::print_diagnosis_report(std::cout, diagnoses, catalog, patterns);
  }
  shutdown_introspection();
  dump_metrics();
  write_traces();
  return 0;
}
