#include "report/dashboard.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/testbed.h"
#include "obs/incident_monitor.h"
#include "report/fixed2.h"
#include "sim/format.h"

namespace ntier::report {

namespace {

using sim::appendf;

std::string esc(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '&')
      out += "&amp;";
    else if (c == '<')
      out += "&lt;";
    else if (c == '>')
      out += "&gt;";
    else if (c == '"')
      out += "&quot;";
    else if (c == '\'')
      out += "&#39;";
    else
      out += c;
  }
  return out;
}

// JSON string escaping that is additionally safe inside an inline
// <script> element: <, >, & become \u00XX so a series name containing
// "</script>" cannot terminate the data island.
std::string json_js(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    if (c == '"')
      out += "\\\"";
    else if (c == '\\')
      out += "\\\\";
    else if (c == '<')
      out += "\\u003c";
    else if (c == '>')
      out += "\\u003e";
    else if (c == '&')
      out += "\\u0026";
    else if (c < 0x20)
      appendf(out, "\\u%04x", c);
    else
      out += static_cast<char>(c);
  }
  return out;
}

// Round up to a friendly axis ceiling (1/2/5 * 10^k).
double nice_ceil(double v) {
  if (v <= 0.0) return 1.0;
  const double mag = std::pow(10.0, std::floor(std::log10(v)));
  for (double m : {1.0, 2.0, 5.0, 10.0}) {
    if (v <= m * mag) return m * mag;
  }
  return 10.0 * mag;
}

// --- the render-ready view of one run ------------------------------------

struct TierPanel {
  std::string name;               // server name ("apache")
  std::vector<std::string> util;  // %-scaled series (vm demand, disk busy)
  std::string queue;              // "<name>.queue"
  std::string dropped;            // "<name>.dropped"
};

struct RunView {
  std::string name;
  std::uint64_t seed = 0;
  double duration_s = 0.0;
  double window_s = 0.05;
  const telemetry::Registry* registry = nullptr;
  const monitor::LatencyCollector* latency = nullptr;
  std::vector<TierPanel> tiers;
};

RunView make_view(const core::Testbed& sys) {
  RunView v;
  v.name = sys.info().name;
  v.seed = sys.info().seed;
  v.duration_s = (sys.simulation().now() - sim::Time::origin()).to_seconds();
  v.window_s = sys.sampler().window().to_seconds();
  v.registry = &sys.registry();
  v.latency = &sys.latency();
  for (std::size_t f = 0; f < sys.flat_count(); ++f) {
    TierPanel p;
    p.name = sys.server_flat(f)->name();
    p.util.push_back(sys.vm_flat(f)->name() + ".demand");
    if (const cpu::IoDevice* disk = sys.disk_flat(f)) p.util.push_back(disk->name() + ".busy");
    p.queue = p.name + ".queue";
    p.dropped = p.name + ".dropped";
    v.tiers.push_back(std::move(p));
  }
  return v;
}

// --- SVG timeline chart ---------------------------------------------------

constexpr double kW = 900, kML = 52, kMR = 56, kMT = 16, kMB = 24;

struct TimeChart {
  double h;           // total height
  double duration_s;  // x domain [0, duration]
  std::string body;

  double ph() const { return h - kMT - kMB; }
  double pw() const { return kW - kML - kMR; }
  double x(double t_s) const {
    return kML + (duration_s > 0 ? t_s / duration_s : 0.0) * pw();
  }
  double y(double v, double ymax) const {
    const double f = ymax > 0 ? v / ymax : 0.0;
    return kMT + (1.0 - (f > 1.0 ? 1.0 : f)) * ph();
  }

  TimeChart(double height, double duration) : h(height), duration_s(duration) {}

  void shade(double t0, double t1, const char* fill) {
    appendf(body, "<rect x='%.2f' y='%.2f' width='%.2f' height='%.2f' fill='%s'/>\n", x(t0),
            kMT, std::max(x(t1) - x(t0), 1.0), ph(), fill);
  }

  // Dashed full-height marker at an incident fire time.
  void marker(double t_s, const char* color) {
    appendf(body,
            "<line x1='%.2f' y1='%.2f' x2='%.2f' y2='%.2f' stroke='%s' stroke-width='1' "
            "stroke-dasharray='4,3' class='incident'/>\n",
            x(t_s), kMT, x(t_s), kMT + ph(), color);
  }

  void frame_and_xaxis() {
    appendf(body,
            "<rect x='%.2f' y='%.2f' width='%.2f' height='%.2f' fill='none' "
            "stroke='#ccc'/>\n",
            kML, kMT, pw(), ph());
    const double step = nice_ceil(duration_s / 8.0);
    for (double t = 0.0; t <= duration_s + 1e-9; t += step) {
      appendf(body,
              "<line x1='%.2f' y1='%.2f' x2='%.2f' y2='%.2f' stroke='#eee'/>"
              "<text x='%.2f' y='%.2f' class='tick' text-anchor='middle'>%g</text>\n",
              x(t), kMT, x(t), kMT + ph(), x(t), h - 8.0, t);
    }
  }

  void yaxis_left(double ymax, const char* unit) {
    appendf(body,
            "<text x='%.2f' y='%.2f' class='tick' text-anchor='end'>%g%s</text>"
            "<text x='%.2f' y='%.2f' class='tick' text-anchor='end'>0</text>\n",
            kML - 4.0, kMT + 9.0, ymax, unit, kML - 4.0, kMT + ph());
  }

  void yaxis_right(double ymax, const char* unit, const char* color) {
    appendf(body, "<text x='%.2f' y='%.2f' class='tick' fill='%s'>%g%s</text>\n",
            kW - kMR + 4.0, kMT + 9.0, color, ymax, unit);
  }

  void line(const std::vector<double>& v, double win_s, double ymax, const char* color) {
    if (v.empty()) return;
    std::string pts;
    char buf[2 * kFixed2Size];  // "x,y ": each separator overwrites a NUL
    for (std::size_t i = 0; i < v.size(); ++i) {
      char* p = put_fixed2(buf, x((static_cast<double>(i) + 0.5) * win_s));
      *p++ = ',';
      p = put_fixed2(p, y(v[i], ymax));
      *p++ = ' ';
      pts.append(buf, p);
    }
    body += "<polyline points='";
    body += pts;
    appendf(body, "' fill='none' stroke='%s' stroke-width='1'/>\n", color);
  }

  void impulses(const std::vector<double>& v, double win_s, double ymax, const char* color) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] <= 0.0) continue;
      char px[kFixed2Size], y0[kFixed2Size], y1[kFixed2Size];
      put_fixed2(px, x((static_cast<double>(i) + 0.5) * win_s));
      put_fixed2(y0, y(0.0, ymax));
      put_fixed2(y1, y(v[i], ymax));
      appendf(body,
              "<line x1='%s' y1='%s' x2='%s' y2='%s' stroke='%s' stroke-width='1.4'/>\n", px,
              y0, px, y1, color);
    }
  }

  void label(double px, double py, const char* color, const std::string& text) {
    appendf(body, "<text x='%.2f' y='%.2f' class='lbl' fill='%s'>%s</text>\n", px, py, color,
            esc(text).c_str());
  }

  std::string svg() const {
    std::string out;
    appendf(out, "<svg viewBox='0 0 %.0f %.0f' xmlns='http://www.w3.org/2000/svg'>\n", kW, h);
    out += body;
    out += "</svg>\n";
    return out;
  }
};

const char* kUtilColors[] = {"#1f77b4", "#9467bd", "#17becf"};

const char* severity_color(obs::Severity s) {
  return s == obs::Severity::kCritical ? "#d62728"
         : s == obs::Severity::kWarning ? "#ff7f0e"
                                        : "#888888";
}

bool panel_has_series(const TierPanel& p, const std::string& series) {
  if (series == p.queue || series == p.dropped) return true;
  for (const auto& u : p.util)
    if (u == series) return true;
  return false;
}

void draw_incident_markers(TimeChart& c, const std::vector<obs::Incident>* incs,
                           const TierPanel* panel) {
  if (incs == nullptr) return;
  for (const auto& inc : *incs) {
    if (panel != nullptr && !panel_has_series(*panel, inc.series)) continue;
    c.marker((inc.fired_at - sim::Time::origin()).to_seconds(), severity_color(inc.severity));
  }
}

void render_tier_panel(std::string& out, const RunView& v, const TierPanel& p,
                       const core::CtqoReport& ctqo,
                       const std::vector<obs::Incident>* incs) {
  TimeChart c(150, v.duration_s);
  for (const auto& ep : ctqo.episodes) {
    c.shade((ep.start - sim::Time::origin()).to_seconds(),
            (ep.end - sim::Time::origin()).to_seconds(), "#fde9e6");
  }
  c.frame_and_xaxis();
  c.yaxis_left(100.0, "%");
  draw_incident_markers(c, incs, &p);

  const metrics::Timeline* q = v.registry->find_series(p.queue);
  const bool has_queue = q != nullptr && q->max_value() > 0.0;
  const double qmax = has_queue ? nice_ceil(q->max_value()) : 1.0;
  if (has_queue) {
    c.line(q->values(), v.window_s, qmax, "#2ca02c");
    c.yaxis_right(qmax, " q", "#2ca02c");
  }
  const metrics::Timeline* d = v.registry->find_series(p.dropped);
  const bool has_drops = d != nullptr && d->max_value() > 0.0;
  if (has_drops) c.impulses(d->values(), v.window_s, nice_ceil(d->max_value()), "#d62728");

  double lx = kML + 6.0;
  for (std::size_t i = 0; i < p.util.size(); ++i) {
    const metrics::Timeline* u = v.registry->find_series(p.util[i]);
    if (u == nullptr) continue;
    const char* color = kUtilColors[i % 3];
    c.line(u->values(), v.window_s, 100.0, color);
    c.label(lx, kMT + 11.0, color, p.util[i]);
    lx += 10.0 + 6.2 * static_cast<double>(p.util[i].size());
  }
  if (has_queue) {
    c.label(lx, kMT + 11.0, "#2ca02c", p.queue);
    lx += 10.0 + 6.2 * static_cast<double>(p.queue.size());
  }
  if (has_drops) c.label(lx, kMT + 11.0, "#d62728", p.dropped + " (impulses)");

  appendf(out, "<h3>%s</h3>\n", esc(p.name).c_str());
  out += c.svg();
}

void render_vlrt_strip(std::string& out, const RunView& v, const core::CtqoReport& ctqo,
                       const std::vector<obs::Incident>* incs) {
  const std::vector<double>& vals = v.latency->vlrt_per_window().values();
  double vmax = 0.0;
  for (double x : vals) vmax = std::max(vmax, x);
  TimeChart c(130, v.duration_s);
  for (const auto& ep : ctqo.episodes) {
    c.shade((ep.start - sim::Time::origin()).to_seconds(),
            (ep.end - sim::Time::origin()).to_seconds(), "#fde9e6");
  }
  c.frame_and_xaxis();
  // Every incident marks the VLRT strip: the strip is the end-to-end
  // consequence the detectors are trying to get ahead of.
  draw_incident_markers(c, incs, nullptr);
  c.yaxis_left(nice_ceil(vmax), "");
  c.impulses(vals, v.window_s, nice_ceil(vmax), "#d62728");
  c.label(kML + 6.0, kMT + 11.0, "#d62728", "VLRT requests per 50 ms window");
  appendf(out, "<h3>VLRT windows (%llu requests &ge; %.1f s; shaded = drop episodes)</h3>\n",
          static_cast<unsigned long long>(v.latency->vlrt_count()),
          v.latency->vlrt_threshold().to_seconds());
  out += c.svg();
}

void render_histogram(std::string& out, const RunView& v) {
  const metrics::LinearHistogram& h = v.latency->histogram();
  std::size_t last = 0;
  std::uint64_t peak = 0;
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    if (h.count_in_bin(i) > 0) last = i;
    peak = std::max(peak, h.count_in_bin(i));
  }
  appendf(out, "<h3>Latency histogram (n=%llu, p50 %.0f ms, p99 %.0f ms, max %.2f s)</h3>\n",
          static_cast<unsigned long long>(h.total()), h.percentile(50.0).to_millis(),
          h.percentile(99.0).to_millis(), h.max().to_seconds());
  if (h.total() == 0) {
    out += "<p class='meta'>no completed requests</p>\n";
    return;
  }
  const double xmax = h.bin_lower(last).to_seconds() + h.bin_width().to_seconds();
  const double ymax = std::log10(static_cast<double>(peak) + 1.0);
  TimeChart c(180, xmax);  // x axis is latency seconds, log10 bar heights
  c.frame_and_xaxis();
  appendf(c.body, "<text x='%.2f' y='%.2f' class='tick' text-anchor='end'>%llu</text>\n",
          kML - 4.0, kMT + 9.0, static_cast<unsigned long long>(peak));
  for (std::size_t i = 0; i <= last; ++i) {
    const std::uint64_t n = h.count_in_bin(i);
    if (n == 0) continue;
    const double x0 = c.x(h.bin_lower(i).to_seconds());
    const double x1 = c.x(h.bin_lower(i).to_seconds() + h.bin_width().to_seconds());
    const double top = c.y(std::log10(static_cast<double>(n) + 1.0), ymax);
    appendf(c.body, "<rect x='%.2f' y='%.2f' width='%.2f' height='%.2f' fill='#1f77b4'/>\n",
            x0, top, std::max(x1 - x0 - 0.5, 0.5), c.y(0.0, ymax) - top);
  }
  c.label(kML + 6.0, kMT + 11.0, "#555",
          "frequency by response time (log count); whole-RTO modes sit at 3/6/9 s");
  out += c.svg();
}

void render_correlation(std::string& out, const core::CorrelationReport& corr) {
  out += "<h3>Correlation engine</h3>\n";
  appendf(out, "<p class='verdict'>queue-depth propagation: <b>%s</b>",
          core::to_string(corr.propagation));
  if (corr.drop_tier >= 0)
    appendf(out, " &mdash; drops at <b>%s</b> (tier %d), bottleneck <b>%s</b> (tier %d)",
            esc(corr.drop_tier_name).c_str(), corr.drop_tier,
            esc(corr.bottleneck_series).c_str(), corr.bottleneck_tier);
  out += "</p>\n";
  if (!corr.chains.empty()) {
    out += "<table><tr><th>#</th><th>saturation</th><th>&rarr; drops</th><th>fill lag</th>"
           "<th>r</th><th>&rarr; VLRT lag</th><th>r</th><th>score</th></tr>\n";
    int i = 0;
    for (const auto& ch : corr.chains) {
      appendf(out,
              "<tr><td>%d</td><td>%s</td><td>%s</td><td>%.2f s</td><td>%.3f</td>"
              "<td>%.2f s</td><td>%.3f</td><td><b>%.3f</b></td></tr>\n",
              ++i, esc(ch.saturation_series).c_str(), esc(ch.drop_series).c_str(),
              ch.fill.lag_seconds, ch.fill.r, ch.rto.lag_seconds, ch.rto.r, ch.score);
    }
    out += "</table>\n";
  }
  if (!corr.direct.empty()) {
    out += "<details><summary>Ranked pairs vs VLRT (spurious-match check)</summary><table>"
           "<tr><th>series</th><th>best lag</th><th>r</th></tr>\n";
    for (const auto& d : corr.direct) {
      appendf(out, "<tr><td>%s</td><td>%.2f s</td><td>%.3f</td></tr>\n", esc(d.source).c_str(),
              d.lag_seconds, d.r);
    }
    out += "</table></details>\n";
  }
  if (!corr.queue_onsets.empty()) {
    out += "<p class='meta'>queue onset (first window at half peak):";
    for (const auto& [name, at] : corr.queue_onsets) {
      if (at < 0)
        appendf(out, " %s=never", esc(name).c_str());
      else
        appendf(out, " %s=%.2fs", esc(name).c_str(), at);
    }
    out += "</p>\n";
  }
}

void render_episodes(std::string& out, const core::CtqoReport& ctqo) {
  appendf(out,
          "<h3>CTQO episodes (%llu drops, %llu upstream / %llu downstream / %llu storms)"
          "</h3>\n",
          static_cast<unsigned long long>(ctqo.total_drops),
          static_cast<unsigned long long>(ctqo.upstream_episodes),
          static_cast<unsigned long long>(ctqo.downstream_episodes),
          static_cast<unsigned long long>(ctqo.retry_storm_episodes));
  if (ctqo.episodes.empty()) {
    out += "<p class='meta'>no drop episodes &mdash; the chain absorbed every burst</p>\n";
    return;
  }
  out += "<table><tr><th>window</th><th>drops</th><th>at</th><th>bottleneck</th>"
         "<th>kind</th><th>storm</th></tr>\n";
  for (const auto& ep : ctqo.episodes) {
    const char* kind = ep.kind == core::CtqoEpisode::Kind::kUpstream     ? "upstream"
                       : ep.kind == core::CtqoEpisode::Kind::kDownstream ? "downstream"
                                                                         : "unknown";
    appendf(out,
            "<tr><td>%.2f&ndash;%.2f s</td><td>%llu</td><td>%s</td><td>%s</td><td>%s</td>"
            "<td>%s</td></tr>\n",
            (ep.start - sim::Time::origin()).to_seconds(),
            (ep.end - sim::Time::origin()).to_seconds(),
            static_cast<unsigned long long>(ep.drops), esc(ep.drop_tier_name).c_str(),
            esc(ep.bottleneck_found ? ep.bottleneck_name : std::string("?")).c_str(), kind,
            ep.retry_storm ? "yes" : "");
  }
  out += "</table>\n";
}

// The incidents table, flight-recorder summary line, and the
// machine-readable data island (satellite of the obs layer; only
// rendered when at least one incident fired, so incident-free runs keep
// byte-identical dashboards).
void render_incidents(std::string& out, const obs::IncidentMonitor& om) {
  const std::vector<obs::Incident>& incs = om.incidents();
  std::size_t open = 0;
  for (const auto& inc : incs)
    if (!inc.cleared) ++open;
  appendf(out, "<h3>Incidents (%llu fired, %llu open at run end)</h3>\n",
          static_cast<unsigned long long>(incs.size()), static_cast<unsigned long long>(open));
  if (om.have_dump_window()) {
    appendf(out, "<p class='meta'>flight recorder: retroactive window %.2f&ndash;%.2f s",
            (om.dump_from() - sim::Time::origin()).to_seconds(),
            (om.dump_to() - sim::Time::origin()).to_seconds());
    if (om.recorder() != nullptr) {
      appendf(out, " &middot; %llu span trees dumped (%llu offered, %llu evicted)",
              static_cast<unsigned long long>(om.dumped_traces()),
              static_cast<unsigned long long>(om.recorder()->offered()),
              static_cast<unsigned long long>(om.recorder()->evicted()));
    }
    out += "</p>\n";
  }
  out += "<table><tr><th>#</th><th>detector</th><th>kind</th><th>series</th>"
         "<th>severity</th><th>fired</th><th>cleared</th><th>value</th><th>stat</th>"
         "<th>peak</th></tr>\n";
  int i = 0;
  for (const auto& inc : incs) {
    appendf(out, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.2f s</td>",
            ++i, esc(inc.detector).c_str(), obs::to_string(inc.kind), esc(inc.series).c_str(),
            obs::to_string(inc.severity), (inc.fired_at - sim::Time::origin()).to_seconds());
    if (inc.cleared)
      appendf(out, "<td>%.2f s</td>", (inc.cleared_at - sim::Time::origin()).to_seconds());
    else
      out += "<td>open</td>";
    appendf(out, "<td>%.3g</td><td>%.3g</td><td>%.3g</td></tr>\n", inc.value_at_fire,
            inc.stat_at_fire, inc.peak_value);
  }
  out += "</table>\n";
  out += "<script type=\"application/json\" id=\"incident-data\">[";
  i = 0;
  for (const auto& inc : incs) {
    if (i++ > 0) out += ",";
    appendf(out,
            "{\"detector\":\"%s\",\"series\":\"%s\",\"kind\":\"%s\",\"severity\":\"%s\","
            "\"fired_s\":%.6f,",
            json_js(inc.detector).c_str(), json_js(inc.series).c_str(),
            obs::to_string(inc.kind), obs::to_string(inc.severity),
            (inc.fired_at - sim::Time::origin()).to_seconds());
    if (inc.cleared)
      appendf(out, "\"cleared_s\":%.6f,", (inc.cleared_at - sim::Time::origin()).to_seconds());
    else
      out += "\"cleared_s\":null,";
    appendf(out, "\"value_at_fire\":%.6g,\"stat_at_fire\":%.6g,\"peak_value\":%.6g}",
            inc.value_at_fire, inc.stat_at_fire, inc.peak_value);
  }
  out += "]</script>\n";
}

void render_counters(std::string& out, const RunView& v) {
  out += "<details><summary>Registry counters &amp; probe totals</summary><table>"
         "<tr><th>metric</th><th>value</th></tr>\n";
  for (const auto& [name, value] : v.registry->snapshot())
    appendf(out, "<tr><td>%s</td><td>%.6g</td></tr>\n", esc(name).c_str(), value);
  const telemetry::GkQuantile* q = v.registry->find_quantile("client.latency_ms");
  if (q != nullptr && q->count() > 0) {
    for (double p : {0.50, 0.99, 0.999}) {
      appendf(out, "<tr><td>client.latency_ms p%g</td><td>%.1f</td></tr>\n", p * 100.0,
              q->quantile(p));
    }
  }
  out += "</table></details>\n";
}

std::string render(const RunView& v, const core::CtqoReport& ctqo,
                   const core::CorrelationReport& corr, const obs::IncidentMonitor* om) {
  const bool have_incidents = om != nullptr && !om->incidents().empty();
  const std::vector<obs::Incident>* incs = have_incidents ? &om->incidents() : nullptr;
  std::string out;
  out += "<!doctype html>\n<html><head><meta charset='utf-8'>\n<title>ntier-ctqo &mdash; ";
  out += esc(v.name);
  out += "</title>\n<style>\n"
         "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:940px;"
         "color:#222}\n"
         "h1{font-size:22px;margin-bottom:2px} h3{margin:18px 0 4px}\n"
         ".meta{color:#666;margin:2px 0} .verdict{background:#f4f7fb;border-left:4px solid "
         "#1f77b4;padding:6px 10px}\n"
         "svg{width:100%;height:auto;display:block} .tick{font-size:10px;fill:#888}\n"
         ".lbl{font-size:10px}\n"
         "table{border-collapse:collapse;margin:6px 0} td,th{border:1px solid #ddd;"
         "padding:2px 8px;font-size:13px;text-align:left}\n"
         "details{margin:8px 0} summary{cursor:pointer;color:#1f77b4}\n"
         "</style></head>\n<body>\n";
  appendf(out, "<h1>ntier-ctqo run: %s</h1>\n", esc(v.name).c_str());
  appendf(out,
          "<p class='meta'>seed %llu &middot; %.0f s simulated &middot; %.0f ms windows "
          "&middot; %llu completed &middot; %llu VLRT &middot; %llu failed</p>\n",
          static_cast<unsigned long long>(v.seed), v.duration_s, v.window_s * 1000.0,
          static_cast<unsigned long long>(v.latency->completed()),
          static_cast<unsigned long long>(v.latency->vlrt_count()),
          static_cast<unsigned long long>(v.latency->failed_count()));
  render_correlation(out, corr);
  render_histogram(out, v);
  for (const auto& p : v.tiers) render_tier_panel(out, v, p, ctqo, incs);
  render_vlrt_strip(out, v, ctqo, incs);
  render_episodes(out, ctqo);
  if (have_incidents) render_incidents(out, *om);
  render_counters(out, v);
  out += "</body></html>\n";
  return out;
}

std::string write_file(const std::string& dir, const std::string& name,
                       const std::string& html) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name + ".dashboard.html";
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("dashboard: cannot write " + path);
  f << html;
  return path;
}

}  // namespace

std::string render_dashboard(const core::Testbed& sys, const core::CtqoReport& ctqo,
                             const core::CorrelationReport& corr,
                             const obs::IncidentMonitor* om) {
  return render(make_view(sys), ctqo, corr, om);
}

std::string write_dashboard(const core::Testbed& sys, const core::CtqoReport& ctqo,
                            const core::CorrelationReport& corr, const std::string& dir,
                            const std::string& name, const obs::IncidentMonitor* om) {
  return write_file(dir, name, render_dashboard(sys, ctqo, corr, om));
}

}  // namespace ntier::report
