#include "deisa/obs/causal.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace deisa::obs {

namespace {

/// Numeric value of a named arg, or fallback when absent/non-numeric.
double numeric_arg(const TraceEvent& ev, const char* key, double fallback) {
  for (const TraceArg& a : ev.args)
    if (a.numeric && a.key == key) {
      try {
        return std::stod(a.value);
      } catch (const std::exception&) {
        return fallback;
      }
    }
  return fallback;
}

bool has_numeric_arg(const TraceEvent& ev, const char* key) {
  for (const TraceArg& a : ev.args)
    if (a.numeric && a.key == key) return true;
  return false;
}

Category categorize(const Track& track, const TraceEvent& ev) {
  if (track.lane == "execute") return Category::kCompute;
  if (track.lane == "fetch" || track.lane == "transfer")
    return Category::kTransfer;
  if (track.actor == "net" || track.actor == "pfs") return Category::kTransfer;
  // Only message handling counts as scheduler work; its other lanes
  // (client-side waits on keys, lifecycle bookkeeping) are waiting.
  // Shards trace as "scheduler-<i>" and partition identically.
  if (track.actor.rfind("scheduler", 0) == 0)
    return track.lane == "inbox" ? Category::kScheduler : Category::kIdle;
  // Bridge push spans carry a bytes annotation; the bridge's waits
  // (contract negotiation, ack latency) do not.
  if (track.actor == "bridge" && has_numeric_arg(ev, "bytes"))
    return Category::kTransfer;
  return Category::kIdle;
}

/// Collapse digit runs so per-task span names aggregate: "execute
/// deisa-G_temp-3-12" and "...-4-0" both become "execute deisa-G_temp-#-#".
std::string collapse_digits(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool in_digits = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      if (!in_digits) out += '#';
      in_digits = true;
    } else {
      out += c;
      in_digits = false;
    }
  }
  return out;
}

}  // namespace

const char* to_string(Category c) {
  switch (c) {
    case Category::kCompute: return "compute";
    case Category::kTransfer: return "transfer";
    case Category::kScheduler: return "scheduler";
    case Category::kIdle: return "idle";
  }
  return "?";
}

const CausalNode* CausalGraph::find(CauseId id) const {
  for (const CausalNode& n : nodes)
    if (n.id == id) return &n;
  return nullptr;
}

CausalGraph build_causal_graph(const std::vector<Track>& tracks,
                               const std::vector<TraceEvent>& events) {
  CausalGraph g;
  g.tracks = tracks;

  // Run window: every event in the trace, causal or not.
  bool any = false;
  for (const TraceEvent& ev : events) {
    if (!any) {
      g.t_begin = ev.ts;
      g.t_end = ev.ts + ev.dur;
      any = true;
    } else {
      g.t_begin = std::min(g.t_begin, ev.ts);
      g.t_end = std::max(g.t_end, ev.ts + ev.dur);
    }
  }

  // Pass 1: candidate nodes (spans with an id) and the referenced-id set.
  std::unordered_map<CauseId, CausalNode> candidates;
  std::unordered_set<CauseId> referenced;
  std::vector<CausalEdge> extra_edges;
  for (const TraceEvent& ev : events) {
    if (ev.type == EventType::kEdge) {
      referenced.insert(ev.cause_id);
      referenced.insert(ev.self_id);
      extra_edges.push_back(CausalEdge{ev.cause_id, ev.self_id, ev.edge});
      continue;
    }
    if (ev.type != EventType::kSpan) continue;
    {
      const Category cat = ev.track < tracks.size()
                               ? categorize(tracks[ev.track], ev)
                               : Category::kIdle;
      if (cat != Category::kIdle) {
        BusyInterval b;
        b.track = ev.track;
        b.t0 = ev.ts;
        b.t1 = ev.ts + ev.dur;
        b.cat = cat;
        if (cat == Category::kScheduler) {
          // Busy share of a scheduler span is the service tail, not the
          // queueing head.
          const double svc = numeric_arg(ev, "svc", -1.0);
          if (svc >= 0.0) b.t0 = std::max(b.t0, b.t1 - svc);
        }
        g.busy.push_back(b);
      }
    }
    if (ev.self_id == 0) continue;
    if (ev.cause_id != 0) referenced.insert(ev.cause_id);
    CausalNode n;
    n.id = ev.self_id;
    n.track = ev.track;
    n.name = ev.name;
    n.t0 = ev.ts;
    n.t1 = ev.ts + ev.dur;
    n.cause = ev.cause_id;
    n.edge = ev.edge;
    n.cat = ev.track < tracks.size() ? categorize(tracks[ev.track], ev)
                                     : Category::kIdle;
    if (n.cat == Category::kScheduler) n.svc = numeric_arg(ev, "svc", -1.0);
    candidates.emplace(n.id, std::move(n));
  }

  // Pass 2: keep spans that are linked into the DAG — they name a cause
  // or something names them. Isolated spans (heartbeats, shutdown
  // bookkeeping) stay out so the DAG shape matches across substrates.
  for (auto& [id, node] : candidates)
    if (node.cause != 0 || referenced.count(id) != 0)
      g.nodes.push_back(node);
  std::sort(g.nodes.begin(), g.nodes.end(),
            [](const CausalNode& a, const CausalNode& b) {
              return a.t0 != b.t0 ? a.t0 < b.t0 : a.id < b.id;
            });

  std::unordered_set<CauseId> present;
  present.reserve(g.nodes.size());
  for (const CausalNode& n : g.nodes) present.insert(n.id);

  for (const CausalNode& n : g.nodes) {
    if (n.cause == 0) continue;
    if (present.count(n.cause) != 0)
      g.edges.push_back(CausalEdge{n.cause, n.id, n.edge});
    else
      ++g.dangling_edges;
  }
  for (const CausalEdge& e : extra_edges) {
    if (present.count(e.src) != 0 && present.count(e.dst) != 0)
      g.edges.push_back(e);
    else
      ++g.dangling_edges;
  }
  return g;
}

CausalGraph build_causal_graph(const Recorder& recorder) {
  std::vector<Track> tracks;
  for (TrackId i = 0; i < recorder.track_count(); ++i)
    tracks.push_back(recorder.track_of(i));
  return build_causal_graph(tracks, recorder.events());
}

CausalGraph build_causal_graph(const TraceData& data) {
  return build_causal_graph(data.tracks, data.events);
}

CriticalPathReport analyze_critical_path(const CausalGraph& graph,
                                         std::size_t top_k,
                                         std::size_t bins) {
  CriticalPathReport rep;
  rep.t_begin = graph.t_begin;
  rep.t_end = graph.t_end;
  rep.nodes = graph.nodes.size();
  rep.edges = graph.edges.size();
  rep.dangling_edges = graph.dangling_edges;

  std::unordered_map<CauseId, const CausalNode*> by_id;
  by_id.reserve(graph.nodes.size());
  for (const CausalNode& n : graph.nodes) by_id.emplace(n.id, &n);
  std::unordered_map<CauseId, std::vector<CauseId>> preds;
  for (const CausalEdge& e : graph.edges) preds[e.dst].push_back(e.src);

  auto& cats = rep.category_seconds;
  const auto attribute = [&cats](const CausalNode& n, double lo, double hi) {
    const double len = std::max(0.0, hi - lo);
    if (len <= 0.0) return;
    if (n.cat == Category::kScheduler && n.svc >= 0.0) {
      // The span covers recv -> handled; the modelled service occupies
      // its tail, anything before that is inbox queueing.
      const double svc_lo = std::max(lo, n.t1 - n.svc);
      const double svc_part = std::max(0.0, hi - svc_lo);
      cats[static_cast<std::size_t>(Category::kScheduler)] += svc_part;
      cats[static_cast<std::size_t>(Category::kIdle)] += len - svc_part;
      return;
    }
    cats[static_cast<std::size_t>(n.cat)] += len;
  };

  // End node: the causal node finishing last.
  const CausalNode* end = nullptr;
  for (const CausalNode& n : graph.nodes)
    if (end == nullptr || n.t1 > end->t1) end = &n;

  std::map<std::string, Contributor> contrib;
  if (end != nullptr) {
    // Trailing window after the last causal node: idle.
    cats[static_cast<std::size_t>(Category::kIdle)] +=
        std::max(0.0, graph.t_end - end->t1);

    // Backward walk. `frontier` is the instant everything after which has
    // already been attributed; it only moves down, so the segments
    // partition [t_begin, t_end] exactly and the categories sum to the
    // makespan by construction.
    double frontier = std::min(end->t1, graph.t_end);
    const CausalNode* cur = end;
    std::unordered_set<CauseId> visited;
    while (cur != nullptr) {
      if (!visited.insert(cur->id).second) break;  // corrupt input cycle
      const double seg = std::max(0.0, frontier - cur->t0);
      attribute(*cur, std::min(cur->t0, frontier), frontier);
      PathStep step;
      step.node = cur->id;
      step.seconds = seg;
      // Enabling predecessor: the one that finished last.
      const CausalNode* best = nullptr;
      const auto it = preds.find(cur->id);
      if (it != preds.end())
        for (CauseId src : it->second) {
          const auto nit = by_id.find(src);
          if (nit == by_id.end()) continue;
          if (best == nullptr || nit->second->t1 > best->t1)
            best = nit->second;
        }
      frontier = std::min(frontier, cur->t0);
      if (best != nullptr && best->t1 < frontier) {
        step.gap_before = frontier - best->t1;
        cats[static_cast<std::size_t>(Category::kIdle)] += step.gap_before;
        frontier = best->t1;
      }
      rep.path.push_back(step);

      const Track& tr = graph.tracks[cur->track];
      const std::string label =
          tr.actor + " " + tr.lane + " " + collapse_digits(cur->name);
      Contributor& c = contrib[label];
      c.label = label;
      c.cat = cur->cat;
      c.seconds += seg;
      ++c.count;

      cur = best;
    }
    // Leading window before the walk's origin: idle.
    cats[static_cast<std::size_t>(Category::kIdle)] +=
        std::max(0.0, frontier - graph.t_begin);
  } else {
    cats[static_cast<std::size_t>(Category::kIdle)] += rep.makespan();
  }

  for (const auto& [label, c] : contrib) rep.contributors.push_back(c);
  std::sort(rep.contributors.begin(), rep.contributors.end(),
            [](const Contributor& a, const Contributor& b) {
              return a.seconds != b.seconds ? a.seconds > b.seconds
                                            : a.label < b.label;
            });
  if (rep.contributors.size() > top_k) rep.contributors.resize(top_k);

  // Per-actor utilization over ALL spans (not just causal ones): busy =
  // union of compute/transfer intervals plus the scheduler service tail.
  std::map<std::string, std::vector<std::pair<double, double>>> busy;
  for (const BusyInterval& b : graph.busy)
    if (b.track < graph.tracks.size())
      busy[graph.tracks[b.track].actor].emplace_back(b.t0, b.t1);
  const double span = rep.makespan();
  for (auto& [actor, ivals] : busy) {
    std::sort(ivals.begin(), ivals.end());
    ActorUtilization u;
    u.actor = actor;
    u.bins.assign(bins, 0.0);
    double lo = 0.0, hi = -1.0;
    std::vector<std::pair<double, double>> merged;
    for (const auto& [a, b] : ivals) {
      if (hi < lo || a > hi) {
        if (hi >= lo) merged.emplace_back(lo, hi);
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi >= lo && !ivals.empty()) merged.emplace_back(lo, hi);
    for (const auto& [a, b] : merged) {
      u.busy_seconds += b - a;
      if (span <= 0.0 || bins == 0) continue;
      const double bin_w = span / static_cast<double>(bins);
      for (std::size_t i = 0; i < bins; ++i) {
        const double b0 = rep.t_begin + static_cast<double>(i) * bin_w;
        const double b1 = b0 + bin_w;
        const double ov = std::min(b, b1) - std::max(a, b0);
        if (ov > 0.0) u.bins[i] += ov / bin_w;
      }
    }
    for (double& f : u.bins) f = std::min(f, 1.0);
    rep.utilization.push_back(std::move(u));
  }
  return rep;
}

}  // namespace deisa::obs
