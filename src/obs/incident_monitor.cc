#include "obs/incident_monitor.h"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <map>

#include "metrics/csv.h"
#include "sim/format.h"
#include "trace/chrome_trace.h"

namespace ntier::obs {

IncidentMonitor::IncidentMonitor(ObsConfig cfg) : cfg_(std::move(cfg)) {}

IncidentMonitor::~IncidentMonitor() {
  // Fallback for callers that never finalize (sweep points, aborted
  // benches): close the books at the last sampled instant so enabled
  // runs always leave their incident log behind.
  if (attached_ && !finalized_) finalize(last_tick_end_);
}

void IncidentMonitor::attach(Bindings b) {
  b_ = std::move(b);
  attached_ = true;
  window_ = b_.sampler->window();

  std::vector<DetectorSpec> specs = cfg_.detectors;
  if (specs.empty()) specs = default_suite(b_.groups, cfg_.vlrt_slo_count);
  bound_.reserve(specs.size());
  for (DetectorSpec& s : specs) {
    Bound bd(std::move(s));
    const DetectorSpec& spec = bd.det.spec();
    if (spec.series == kVlrtSeries) {
      bd.tl = b_.vlrt;
    } else {
      bd.tl = b_.registry->find_series(spec.series);
    }
    bound_.push_back(std::move(bd));
  }

  b_.sampler->add_tick_hook([this](sim::Time wstart) { on_tick(wstart); });
  if (b_.tracer != nullptr && b_.tracer->enabled()) {
    recorder_ = std::make_unique<FlightRecorder>(cfg_.flight);
    b_.tracer->set_finish_hook(
        [this](const trace::TracePtr& t, sim::Duration) { recorder_->offer(t); });
  }
}

void IncidentMonitor::on_tick(sim::Time wstart) {
  last_tick_end_ = wstart + window_;
  for (Bound& bd : bound_) {
    double v = 0.0;
    if (bd.tl != nullptr) {
      const std::size_t ix = static_cast<std::size_t>(
          wstart.count_micros() / bd.tl->window().count_micros());
      v = bd.tl->value_at(ix);
    }
    const Detector::Edge edge = bd.det.observe(v);
    if (bd.open_incident >= 0) {
      Incident& inc = incidents_[static_cast<std::size_t>(bd.open_incident)];
      inc.peak_value = std::max(inc.peak_value, v);
    }
    if (edge == Detector::Edge::kFire) {
      Incident inc;
      const DetectorSpec& spec = bd.det.spec();
      inc.detector = spec.name;
      inc.series = spec.series;
      inc.kind = spec.kind;
      inc.severity = spec.severity;
      inc.fired_at = wstart;
      inc.value_at_fire = v;
      inc.stat_at_fire = bd.det.statistic();
      inc.peak_value = v;
      bd.open_incident = static_cast<int>(incidents_.size());
      incidents_.push_back(std::move(inc));
      trigger_capture(wstart);
    } else if (edge == Detector::Edge::kClear && bd.open_incident >= 0) {
      Incident& inc = incidents_[static_cast<std::size_t>(bd.open_incident)];
      inc.cleared = true;
      inc.cleared_at = wstart;
      bd.open_incident = -1;
    }
  }
  // The post-trigger half of the retro window has elapsed: dump now,
  // mid-run, while the frozen ring still holds the pre-trigger spans.
  if (capture_pending_ && last_tick_end_ >= trigger_ + cfg_.flight.window) {
    do_dump(last_tick_end_);
  }
}

void IncidentMonitor::trigger_capture(sim::Time fired_at) {
  if (capture_pending_ || dumps_done_ >= std::max(0, cfg_.max_dumps)) {
    if (!have_window_ && !capture_pending_) {
      // Dumping disabled (max_dumps 0): still pin the retro window to
      // the first fire so incident.json can slice the timelines.
      trigger_ = fired_at;
      have_window_ = true;
      dump_from_ = fired_at < sim::Time::origin() + cfg_.flight.window
                       ? sim::Time::origin()
                       : fired_at - cfg_.flight.window;
      dump_to_ = fired_at + cfg_.flight.window;
    }
    return;
  }
  capture_pending_ = true;
  trigger_ = fired_at;
  if (recorder_) recorder_->freeze();
}

void IncidentMonitor::do_dump(sim::Time at) {
  capture_pending_ = false;
  ++dumps_done_;
  const sim::Duration w = cfg_.flight.window;
  dump_from_ = trigger_ < sim::Time::origin() + w ? sim::Time::origin() : trigger_ - w;
  dump_to_ = std::min(trigger_ + w, std::max(at, trigger_));
  have_window_ = true;
  if (recorder_) {
    const std::vector<trace::TracePtr> snap =
        recorder_->window_snapshot(dump_from_, dump_to_);
    dumped_traces_ = snap.size();
    if (!cfg_.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(cfg_.out_dir, ec);
      const std::string base = cfg_.out_dir + "/" + b_.run_name + ".incident";
      if (metrics::write_file(base + ".trace.json", trace::chrome_trace_json(snap)))
        written_.push_back(base + ".trace.json");
      if (metrics::write_file(base + "_spans.csv", trace::spans_csv(snap)))
        written_.push_back(base + "_spans.csv");
    }
    recorder_->thaw();
  }
}

void IncidentMonitor::finalize(sim::Time end) {
  if (finalized_ || !attached_) return;
  finalized_ = true;
  if (capture_pending_) do_dump(end);
  if (!cfg_.out_dir.empty()) write_incident_json(end);
}

void IncidentMonitor::write_incident_json(sim::Time end) {
  std::string out = "{\n  \"schema\": \"ntier.incidents/1\",\n  \"name\": ";
  sim::append_json_string(out, b_.run_name);
  sim::appendf(out, ",\n  \"window_ms\": %.10g,\n  \"detectors\": %zu,\n  \"end_s\": %.10g",
               window_.to_millis(), bound_.size(), end.to_seconds());
  if (recorder_) {
    sim::appendf(out,
                 ",\n  \"flight\": {\n    \"ring_capacity\": %zu,\n    \"window_s\": %.10g"
                 ",\n    \"offered\": %" PRIu64 ",\n    \"evicted\": %" PRIu64 "\n  }",
                 cfg_.flight.ring_capacity, cfg_.flight.window.to_seconds(),
                 recorder_->offered(), recorder_->evicted());
  }
  if (have_window_) {
    sim::appendf(out,
                 ",\n  \"dump\": {\n    \"from_s\": %.10g,\n    \"to_s\": %.10g"
                 ",\n    \"traces\": %zu\n  }",
                 dump_from_.to_seconds(), dump_to_.to_seconds(), dumped_traces_);
  }
  out += ",\n  \"incidents\": [";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const Incident& inc = incidents_[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"detector\": ";
    sim::append_json_string(out, inc.detector);
    sim::appendf(out, ", \"kind\": \"%s\", \"series\": ", obs::to_string(inc.kind));
    sim::append_json_string(out, inc.series);
    sim::appendf(out, ", \"severity\": \"%s\", \"fired_s\": %.10g, \"cleared_s\": ",
                 obs::to_string(inc.severity), inc.fired_at.to_seconds());
    if (inc.cleared)
      sim::appendf(out, "%.10g", inc.cleared_at.to_seconds());
    else
      out += "null";
    sim::appendf(out, ", \"value_at_fire\": %.10g, \"stat_at_fire\": %.10g, \"peak_value\": %.10g}",
                 inc.value_at_fire, inc.stat_at_fire, inc.peak_value);
  }
  out += incidents_.empty() ? "],\n" : "\n  ],\n";
  // Retro-window slices of every bound series: the flight-recorder view
  // of the *metric* plane, so the dump shows the causal drop episode
  // even when no spans were captured.
  out += "  \"timelines\": {";
  bool first = true;
  if (have_window_) {
    // Distinct bound series, preserving suite order.
    std::vector<const Bound*> slices;
    for (const Bound& bd : bound_) {
      if (bd.tl == nullptr) continue;
      bool dup = false;
      for (const Bound* prev : slices)
        if (prev->tl == bd.tl) { dup = true; break; }
      if (!dup) slices.push_back(&bd);
    }
    for (const Bound* bd : slices) {
      const std::int64_t win_us = bd->tl->window().count_micros();
      const std::size_t i0 =
          static_cast<std::size_t>(dump_from_.count_micros() / win_us);
      const std::size_t i1 = std::min(
          bd->tl->window_count(),
          static_cast<std::size_t>((dump_to_.count_micros() + win_us - 1) / win_us));
      out += first ? "\n    " : ",\n    ";
      first = false;
      sim::append_json_string(out, bd->det.spec().series);
      sim::appendf(out, ": {\"t0_s\": %.10g, \"window_ms\": %.10g, \"values\": [",
                   bd->tl->window_start(i0).to_seconds(), bd->tl->window().to_millis());
      for (std::size_t i = i0; i < i1; ++i)
        sim::appendf(out, i > i0 ? ", %.10g" : "%.10g", bd->tl->value_at(i));
      out += "]}";
    }
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";

  std::error_code ec;
  std::filesystem::create_directories(cfg_.out_dir, ec);
  const std::string path = cfg_.out_dir + "/" + b_.run_name + ".incident.json";
  if (metrics::write_file(path, out)) written_.push_back(path);
}

IncidentSummary IncidentMonitor::summary() const {
  IncidentSummary s;
  s.count = incidents_.size();
  std::map<std::string, std::uint64_t> by;
  for (const Incident& inc : incidents_) {
    if (!inc.cleared) ++s.open;
    if (s.first_fire_s < 0 || inc.fired_at.to_seconds() < s.first_fire_s)
      s.first_fire_s = inc.fired_at.to_seconds();
    ++by[inc.detector];
  }
  s.by_detector.assign(by.begin(), by.end());
  return s;
}

std::string IncidentMonitor::to_string() const {
  if (incidents_.empty() && written_.empty()) return std::string();
  std::string out = "--- incidents: " + std::to_string(incidents_.size()) + " fired";
  const IncidentSummary s = summary();
  if (s.open > 0) out += " (" + std::to_string(s.open) + " still open)";
  out += " ---\n";
  for (const Incident& inc : incidents_) {
    sim::appendf(out, "  [%s] %s (%s) fired %.2fs", obs::to_string(inc.severity),
                 inc.detector.c_str(), obs::to_string(inc.kind), inc.fired_at.to_seconds());
    if (inc.cleared)
      sim::appendf(out, " cleared %.2fs", inc.cleared_at.to_seconds());
    else
      out += " OPEN";
    sim::appendf(out, " peak %.3g\n", inc.peak_value);
  }
  if (recorder_) {
    sim::appendf(out, "  flight: offered %" PRIu64 " evicted %" PRIu64, recorder_->offered(),
                 recorder_->evicted());
    if (have_window_)
      sim::appendf(out, " dump %.2f..%.2fs traces %zu", dump_from_.to_seconds(),
                   dump_to_.to_seconds(), dumped_traces_);
    out += '\n';
  }
  for (const std::string& p : written_) out += "  wrote " + p + "\n";
  return out;
}

}  // namespace ntier::obs
