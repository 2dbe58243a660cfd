#include "harness/report.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace netrs::harness {
namespace {

struct Panel {
  const char* name;
  double quantile;  // < 0 => mean
};

constexpr Panel kPanels[] = {
    {"Avg", -1.0},
    {"95th percentile", 0.95},
    {"99th percentile", 0.99},
    {"99.9th percentile", 0.999},
};

// A count as printf's %llu argument.
unsigned long long ull(std::uint64_t v) { return v; }

double panel_value(const ExperimentResult& r, const Panel& p) {
  return p.quantile < 0.0 ? r.mean_ms() : r.percentile_ms(p.quantile);
}

/// Report label of one trace ring: "shard N", or "coordinator" for the
/// trailing entry of a sharded repeat (serial repeats have one ring).
std::string trace_lane_label(std::size_t lane, std::size_t lanes) {
  if (lanes > 1 && lane + 1 == lanes) return "coordinator";
  return "shard " + std::to_string(lane);
}

/// " (worst: shard N, M dropped)" naming the ring that wrapped hardest
/// across repeats, or "" when no per-ring breakdown exists.
std::string worst_trace_lane(const ExperimentResult& r) {
  std::uint64_t worst = 0;
  std::string label;
  for (const ExperimentResult::TraceRepeatCounts& t : r.trace_repeats) {
    for (std::size_t lane = 0; lane < t.lanes.size(); ++lane) {
      if (t.lanes[lane].dropped > worst) {
        worst = t.lanes[lane].dropped;
        label = trace_lane_label(lane, t.lanes.size());
      }
    }
  }
  if (worst == 0) return "";
  return " (worst: " + label + ", " + std::to_string(worst) + " dropped)";
}

// Calls fn(sweep value, scheme label, result) for every cell, row-major.
template <typename Fn>
void for_each_cell(const SweepReport& report, Fn&& fn) {
  for (std::size_t i = 0; i < report.sweep_values.size(); ++i) {
    for (std::size_t j = 0; j < report.schemes.size(); ++j) {
      fn(report.sweep_values[i].c_str(), scheme_name(report.schemes[j]),
         report.results[i][j]);
    }
  }
}

// True when `pred` holds for any cell.
template <typename Pred>
bool any_cell(const SweepReport& report, Pred&& pred) {
  for (const auto& row : report.results) {
    for (const ExperimentResult& r : row) {
      if (pred(r)) return true;
    }
  }
  return false;
}

void print_latency_panels(const SweepReport& report) {
  for (const Panel& panel : kPanels) {
    std::printf("\n-- Latency (ms), %s --\n", panel.name);
    std::printf("%-12s", report.sweep_label.c_str());
    for (Scheme s : report.schemes) std::printf("%12s", scheme_name(s));
    std::printf("\n");
    for (std::size_t i = 0; i < report.sweep_values.size(); ++i) {
      std::printf("%-12s", report.sweep_values[i].c_str());
      for (std::size_t j = 0; j < report.schemes.size(); ++j) {
        std::printf("%12.3f", panel_value(report.results[i][j], panel));
      }
      std::printf("\n");
    }
  }
}

void print_diagnostics(const SweepReport& report) {
  std::printf("\n-- Diagnostics --\n");
  std::printf("%-12s %-11s %8s %12s %12s %10s %8s %8s %8s %8s\n",
              report.sweep_label.c_str(), "scheme", "RSNodes", "plan",
              "completed", "redundant", "fwd/req", "KB/req", "herdCV", "wall(s)");
  for_each_cell(report, [](const char* value, const char* scheme,
                           const ExperimentResult& r) {
    std::printf(
        "%-12s %-11s %8d %12s %12llu %12llu %10.2f %8.2f %8.2f %8.1f\n",
        value, scheme, r.rsnodes, r.plan_method.c_str(), ull(r.completed),
        ull(r.redundant), r.avg_forwards, r.wire_bytes_per_request / 1024.0,
        r.load_oscillation, r.wall_seconds);
  });
}

// One cell's trace bookkeeping: totals, per-repeat counts, the rings that
// wrapped, and a warning when any event was lost.
void print_trace_counts(const char* value, const char* scheme,
                        const ExperimentResult& r) {
  if (r.trace_events > 0 || r.trace_dropped > 0) {
    std::printf("%-12s %-11s trace: %llu events retained, %llu "
                "dropped to ring wraparound\n",
                value, scheme, ull(r.trace_events), ull(r.trace_dropped));
  }
  for (std::size_t rep = 0; rep < r.trace_repeats.size(); ++rep) {
    const ExperimentResult::TraceRepeatCounts& t = r.trace_repeats[rep];
    std::printf("%-12s %-11s   trace repeat %llu: %llu recorded, "
                "%llu dropped\n",
                value, scheme, ull(rep), ull(t.recorded), ull(t.dropped));
    // Per-ring breakdown only for rings that actually wrapped, so a clean
    // run's report is identical at any shard count.
    for (std::size_t lane = 0; lane < t.lanes.size(); ++lane) {
      if (t.lanes[lane].dropped == 0) continue;
      std::printf("%-12s %-11s     %s ring: %llu recorded, %llu "
                  "dropped\n",
                  value, scheme, trace_lane_label(lane, t.lanes.size()).c_str(),
                  ull(t.lanes[lane].recorded), ull(t.lanes[lane].dropped));
    }
  }
  if (r.trace_dropped > 0) {
    std::printf("WARNING: %s/%s dropped %llu trace events to ring "
                "wraparound%s; raise --trace-capacity (or "
                "NETRS_TRACE_CAPACITY) to keep them\n",
                value, scheme, ull(r.trace_dropped),
                worst_trace_lane(r).c_str());
  }
}

// Metrics summary (only when the run sampled metrics, DESIGN.md §8):
// per-metric min / mean / max / last over every tick of every repeat.
void print_metrics_summary(const SweepReport& report) {
  if (!any_cell(report, [](const ExperimentResult& r) {
        return r.metrics.enabled();
      })) {
    return;
  }
  std::printf("\n-- Metrics summary --\n");
  std::printf("%-12s %-11s %-18s %10s %12s %12s %12s %12s\n",
              report.sweep_label.c_str(), "scheme", "metric", "samples", "min",
              "mean", "max", "last");
  for_each_cell(report, [](const char* value, const char* scheme,
                           const ExperimentResult& r) {
    for (const obs::MetricSummaryEntry& e : r.metrics.entries) {
      std::printf("%-12s %-11s %-18s %10llu %12s %12s %12s %12s\n", value,
                  scheme, e.name.c_str(), ull(e.samples),
                  obs::format_metric_value(e.min).c_str(),
                  obs::format_metric_value(e.mean).c_str(),
                  obs::format_metric_value(e.max).c_str(),
                  obs::format_metric_value(e.last).c_str());
    }
    print_trace_counts(value, scheme, r);
  });
}

// Latency attribution (flight recorder, DESIGN.md §8.4): per-component
// mean / p99 per scheme. Components telescope, so the component means sum
// to the total's mean exactly.
void print_attribution(const SweepReport& report) {
  if (!any_cell(report, [](const ExperimentResult& r) {
        return r.attribution.enabled;
      })) {
    return;
  }
  std::printf("\n-- Latency attribution (ms) --\n");
  std::printf("%-12s %-11s %-12s %12s %12s %12s\n",
              report.sweep_label.c_str(), "scheme", "component", "count",
              "mean", "p99");
  for_each_cell(report, [](const char* value, const char* scheme,
                           const ExperimentResult& r) {
    const obs::AttributionSummary& a = r.attribution;
    if (!a.enabled) return;
    const auto row = [value, scheme](const char* component,
                                     const sim::LatencyRecorder& rec) {
      std::printf("%-12s %-11s %-12s %12llu %12.4f %12.4f\n", value, scheme,
                  component, ull(rec.count()),
                  rec.empty() ? 0.0 : rec.mean(),
                  rec.empty() ? 0.0 : rec.percentile(0.99));
    };
    for (std::size_t c = 0; c < obs::kFlightComponents; ++c) {
      row(obs::kFlightComponentNames[c], a.components_ms[c]);
    }
    row("total", a.total_ms);
    std::printf("%-12s %-11s   dup wins %llu, via RSNode %llu, "
                "unmatched %llu\n",
                value, scheme, ull(a.dup_wins), ull(a.via_rs),
                ull(a.unmatched));
  });
}

// Selection quality (decision auditor, DESIGN.md §8.5): oracle regret,
// feedback staleness, and herd index per scheme — the paper's freshness
// causal claim as numbers.
void print_selection_quality(const SweepReport& report) {
  if (!any_cell(report, [](const ExperimentResult& r) {
        return r.decisions.enabled;
      })) {
    return;
  }
  std::printf("\n-- Selection quality --\n");
  std::printf("%-12s %-11s %10s %12s %12s %12s %12s %10s\n",
              report.sweep_label.c_str(), "scheme", "decisions", "regret(ms)",
              "regretP99", "stale(ms)", "staleP99", "herd");
  for_each_cell(report, [](const char* value, const char* scheme,
                           const ExperimentResult& r) {
    const obs::DecisionSummary& d = r.decisions;
    if (!d.enabled) return;
    std::printf("%-12s %-11s %10llu %12.4f %12.4f %12.4f %12.4f %10.3f\n",
                value, scheme, ull(d.decisions),
                d.regret_ms.empty() ? 0.0 : d.regret_ms.mean(),
                d.regret_ms.empty() ? 0.0 : d.regret_ms.percentile(0.99),
                d.staleness_ms.empty() ? 0.0 : d.staleness_ms.mean(),
                d.staleness_ms.empty() ? 0.0 : d.staleness_ms.percentile(0.99),
                d.herd.empty() ? 0.0 : d.herd.mean());
  });
}

// Audit summary (checked builds only): one line per cell plus detailed
// provenance for the first violations, so a red CI audit job is actionable
// from the log alone.
void print_audit(const SweepReport& report) {
  if (!any_cell(report,
                [](const ExperimentResult& r) { return r.audit.enabled; })) {
    return;
  }
  std::printf("\n-- Invariant audit --\n");
  std::printf("%-12s %-11s %12s %12s %12s %12s %10s\n",
              report.sweep_label.c_str(), "scheme", "checks", "violations",
              "injected", "delivered", "in-flight");
  for_each_cell(report, [](const char* value, const char* scheme,
                           const ExperimentResult& r) {
    const sim::AuditSummary& a = r.audit;
    std::printf("%-12s %-11s %12llu %12llu %12llu %12llu %10llu\n", value,
                scheme, ull(a.checks), ull(a.violations_total),
                ull(a.packets_injected), ull(a.packets_delivered),
                ull(a.packets_in_flight_at_end));
    for (const sim::AuditViolation& v : a.violations) {
      std::printf("    [%s] t=%lld ns event=%llu: %s\n", v.rule.c_str(),
                  static_cast<long long>(v.when), ull(v.event_seq),
                  v.detail.c_str());
    }
  });
}

// Shard-parallel engine (DESIGN.md §4.10 / §8.6): per-shard event counts
// whenever a cell ran more than one shard, joined with the execute/stall
// wall-time split when --shard-telemetry was on. Printed only for sharded
// (or telemetry-enabled) cells, so serial reports are unchanged.
void print_shard_engine(const SweepReport& report) {
  const auto sharded = [](const ExperimentResult& r) {
    return r.events_per_shard.size() > 1 || !r.shard_telemetry.empty();
  };
  if (!any_cell(report, sharded)) return;
  std::printf("\n-- Shard engine --\n");
  std::printf("%-12s %-11s %-12s %14s %10s %12s %12s %8s\n",
              report.sweep_label.c_str(), "scheme", "shard", "events",
              "windows", "exec(ms)", "stall(ms)", "util");
  for_each_cell(report, [&sharded](const char* value, const char* scheme,
                                   const ExperimentResult& r) {
    if (!sharded(r)) return;
    // Telemetry summed over repeats, per shard lane.
    std::vector<sim::ShardTelemetry::Lane> lanes;
    for (const sim::ShardTelemetry& t : r.shard_telemetry) {
      if (t.lanes.size() > lanes.size()) lanes.resize(t.lanes.size());
      for (std::size_t s = 0; s < t.lanes.size(); ++s) {
        lanes[s].windows += t.lanes[s].windows;
        lanes[s].exec_ns += t.lanes[s].exec_ns;
        lanes[s].stall_ns += t.lanes[s].stall_ns;
      }
    }
    const std::size_t n = std::max(r.events_per_shard.size(), lanes.size());
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint64_t events =
          s < r.events_per_shard.size() ? r.events_per_shard[s] : 0;
      std::printf("%-12s %-11s %-12s %14llu", value, scheme,
                  ("shard " + std::to_string(s)).c_str(), ull(events));
      if (s < lanes.size()) {
        const double exec = static_cast<double>(lanes[s].exec_ns);
        const double stall = static_cast<double>(lanes[s].stall_ns);
        std::printf(" %10llu %12.1f %12.1f %7.1f%%\n",
                    ull(lanes[s].windows), exec / 1e6, stall / 1e6,
                    exec + stall > 0.0 ? 100.0 * exec / (exec + stall) : 0.0);
      } else {
        std::printf(" %10s %12s %12s %8s\n", "-", "-", "-", "-");
      }
    }
  });
}

}  // namespace

void print_report(const SweepReport& report) {
  std::printf("\n=== %s ===\n", report.title.c_str());
  print_latency_panels(report);
  print_diagnostics(report);
  print_metrics_summary(report);
  print_attribution(report);
  print_selection_quality(report);
  print_audit(report);
  print_shard_engine(report);
  // Fault-injection phase windows (DESIGN.md §9): pre/during/post latency
  // and decision quality per scheme for every cell that ran a fault plan.
  for_each_cell(report, [](const char*, const char* scheme,
                           const ExperimentResult& r) {
    print_fault_phases(scheme, r);
  });
  std::fflush(stdout);
}

void print_fault_phases(const char* label, const ExperimentResult& r) {
  if (!r.fault.enabled) return;
  const FaultPhaseStats& f = r.fault;
  std::printf("\n-- Fault phases, %s (window %.1f..%.1f ms; %llu events "
              "fired, %llu unbound) --\n",
              label, f.window_start_ms, f.window_end_ms,
              ull(f.events_fired), ull(f.events_unbound));
  std::printf("%-8s %12s %10s %10s %12s %12s %12s %12s\n", "phase",
              "completed", "p50(ms)", "p99(ms)", "regret(ms)", "regretP99",
              "stale(ms)", "staleP99");
  for (int p = 0; p < 3; ++p) {
    const sim::LatencyRecorder& lat = f.latency_ms[p];
    const sim::LatencyRecorder& reg = f.regret_ms[p];
    const sim::LatencyRecorder& stl = f.staleness_ms[p];
    std::printf("%-8s %12llu %10.3f %10.3f %12.4f %12.4f %12.4f %12.4f\n",
                fault_phase_name(p), ull(lat.count()),
                lat.empty() ? 0.0 : lat.percentile(0.5),
                lat.empty() ? 0.0 : lat.percentile(0.99),
                reg.empty() ? 0.0 : reg.mean(),
                reg.empty() ? 0.0 : reg.percentile(0.99),
                stl.empty() ? 0.0 : stl.mean(),
                stl.empty() ? 0.0 : stl.percentile(0.99));
  }
  std::fflush(stdout);
}

void write_csv(const SweepReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  for (std::size_t i = 0; i < report.sweep_values.size(); ++i) {
    for (std::size_t j = 0; j < report.schemes.size(); ++j) {
      const ExperimentResult& r = report.results[i][j];
      for (const Panel& panel : kPanels) {
        out << report.title << ',' << report.sweep_values[i] << ','
            << scheme_name(report.schemes[j]) << ',' << panel.name << ','
            << panel_value(r, panel) << '\n';
      }
    }
  }
}

}  // namespace netrs::harness
