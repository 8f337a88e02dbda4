#include "deisa/obs/export.hpp"

#include <cstdio>
#include <ostream>

#include "deisa/util/error.hpp"
#include "deisa/util/table.hpp"

namespace deisa::obs {

namespace {

/// Render seconds as microseconds (the trace-event time unit) with enough
/// digits that nanosecond-scale sim events stay distinct.
std::string us(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_args_object(const std::vector<TraceArg>& args, std::ostream& out) {
  out << '{';
  bool first = true;
  for (const TraceArg& a : args) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(a.key) << "\":";
    if (a.numeric) {
      out << a.value;
    } else {
      out << '"' << json_escape(a.value) << '"';
    }
  }
  out << '}';
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(const Recorder& recorder, std::ostream& out) {
  // pid per unique actor, in first-seen order; tid = track index + 1.
  std::map<std::string, int> pids;
  std::vector<int> track_pid(recorder.track_count(), 0);
  for (TrackId i = 0; i < track_pid.size(); ++i) {
    auto [it, fresh] = pids.emplace(recorder.track_of(i).actor,
                                    static_cast<int>(pids.size()) + 1);
    (void)fresh;
    track_pid[i] = it->second;
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (const auto& [actor, pid] : pids) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(actor) << "\"}}";
  }
  for (TrackId i = 0; i < track_pid.size(); ++i) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << track_pid[i]
        << ",\"tid\":" << i + 1 << ",\"args\":{\"name\":\""
        << json_escape(recorder.track_of(i).lane) << "\"}}";
  }

  recorder.for_each([&](const TraceEvent& ev) {
    DEISA_ASSERT(ev.track < track_pid.size(), "event on unknown track");
    const int pid = track_pid[ev.track];
    const TrackId tid = ev.track + 1;
    sep();
    out << "{\"name\":\"" << json_escape(ev.name) << "\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"ts\":" << us(ev.ts);
    switch (ev.type) {
      case EventType::kSpan:
        out << ",\"ph\":\"X\",\"dur\":" << us(ev.dur);
        break;
      case EventType::kInstant:
        out << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case EventType::kCounter:
        out << ",\"ph\":\"C\"";
        break;
      case EventType::kEdge:
        // Causal edge, rendered as an instant; the "cat" marks it so the
        // trace loader can reconstruct the edge list.
        out << ",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"edge\"";
        break;
    }
    // Causality annotations; extra top-level keys are ignored by Chrome
    // and Perfetto but round-trip through load_chrome_trace().
    if (ev.self_id != 0) out << ",\"cid\":" << ev.self_id;
    if (ev.cause_id != 0) out << ",\"cause\":" << ev.cause_id;
    if (ev.edge != EdgeKind::kNone)
      out << ",\"ek\":\"" << to_string(ev.edge) << "\"";
    if (ev.type == EventType::kCounter) {
      out << ",\"args\":{\"value\":" << num(ev.value) << "}";
    } else if (!ev.args.empty()) {
      out << ",\"args\":";
      write_args_object(ev.args, out);
    }
    out << "}";
  });
  out << "\n]}\n";
}

void write_trace_csv(const Recorder& recorder, std::ostream& out) {
  const auto csv_quote = [](const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"') q += "\"\"";
      else q += c;
    }
    q += '"';
    return q;
  };
  out << "type,actor,lane,name,ts_s,dur_s,value,self_id,cause_id,edge,args\n";
  recorder.for_each([&](const TraceEvent& ev) {
    const Track t = recorder.track_of(ev.track);
    std::string args;
    for (const TraceArg& a : ev.args) {
      if (!args.empty()) args += ';';
      args += a.key + "=" + a.value;
    }
    out << to_string(ev.type) << ',' << csv_quote(t.actor) << ','
        << csv_quote(t.lane) << ',' << csv_quote(ev.name) << ',' << num(ev.ts)
        << ',' << num(ev.dur) << ',' << num(ev.value) << ',' << ev.self_id
        << ',' << ev.cause_id << ',' << to_string(ev.edge) << ','
        << csv_quote(args) << "\n";
  });
}

void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out) {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": " << v;
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": " << num(v);
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": {"
        << "\"count\": " << h.count << ", \"mean\": " << num(h.mean)
        << ", \"stddev\": " << num(h.stddev) << ", \"min\": " << num(h.min)
        << ", \"max\": " << num(h.max) << ", \"p50\": " << num(h.p50)
        << ", \"p95\": " << num(h.p95) << ", \"p99\": " << num(h.p99) << "}";
    first = false;
  }
  out << "\n  }\n}\n";
}

void write_metrics_table(const MetricsSnapshot& snapshot, std::ostream& out) {
  if (!snapshot.counters.empty()) {
    util::Table t({"counter", "value"});
    for (const auto& [name, v] : snapshot.counters)
      t.add_row({name, std::to_string(v)});
    t.print(out);
  }
  if (!snapshot.gauges.empty()) {
    util::Table t({"gauge", "value"});
    for (const auto& [name, v] : snapshot.gauges) t.add_row({name, num(v)});
    t.print(out);
  }
  if (!snapshot.histograms.empty()) {
    util::Table t({"histogram", "count", "mean", "stddev", "p50", "p95",
                   "max"});
    for (const auto& [name, h] : snapshot.histograms)
      t.add_row({name, std::to_string(h.count), num(h.mean), num(h.stddev),
                 num(h.p50), num(h.p95), num(h.max)});
    t.print(out);
  }
}

}  // namespace deisa::obs
