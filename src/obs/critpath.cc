#include "src/obs/critpath.h"

#include <algorithm>
#include <cstdio>

#include "src/crypto/sha256.h"
#include "src/obs/json.h"

namespace achilles {
namespace obs {

namespace {
constexpr double kMsPerNs = 1.0 / 1e6;

size_t CompIdx(Component c) { return static_cast<size_t>(c); }

void AppendNum(std::string* out, long long v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%lld", v);
  out->append(buf, static_cast<size_t>(n));
}
}  // namespace

CritScales CritScalesOnes() {
  CritScales s;
  s.fill(1.0);
  return s;
}

// --- Recording -------------------------------------------------------------------------

uint32_t CritPathCollector::NewActivity(Kind kind, uint32_t node, const char* name) {
  if (activities_.size() > options_.max_activities) {
    ++dropped_activities_;
    return 0;
  }
  Activity a;
  a.kind = kind;
  a.node = node;
  a.name = name;
  activities_.push_back(a);
  ++used_activities_;
  return static_cast<uint32_t>(activities_.size() - 1);
}

void CritPathCollector::PushSegment(uint32_t activity, Component c, int64_t dur, bool wait,
                                    bool open) {
  if (activity == 0 || dur <= 0) {
    return;
  }
  if (segments_.size() > options_.max_segments) {
    ++dropped_segments_;
    return;
  }
  Segment s;
  s.dur = dur;
  s.comp = c;
  s.wait = wait;
  segments_.push_back(s);
  ++used_segments_;
  const uint32_t id = static_cast<uint32_t>(segments_.size() - 1);
  Activity& a = activities_[activity];
  if (a.seg_tail != 0) {
    segments_[a.seg_tail].next = id;
  } else {
    a.seg_head = id;
  }
  a.seg_tail = id;
  a.open_seg = open ? id : 0;
}

void CritPathCollector::Seal(uint32_t activity) {
  if (activity != 0) {
    activities_[activity].open_seg = 0;
  }
}

const CritPathCollector::Activity* CritPathCollector::Get(uint32_t id) const {
  return id != 0 && id < activities_.size() ? &activities_[id] : nullptr;
}

uint32_t CritPathCollector::BeginOrigin(uint32_t node, SimTime origin, SimTime local_now) {
  const uint32_t id = NewActivity(Kind::kOrigin, node, "propose");
  if (id == 0) {
    return 0;
  }
  Activity& a = activities_[id];
  a.start = origin;
  a.ready = origin;
  // The handler time already spent past the proposal point (building the block) mirrors
  // RestartPathAt's CoverUntil(kCpu, LocalNow()).
  PushSegment(id, Component::kCpu, local_now - origin, /*wait=*/false, /*open=*/true);
  last_cpu_[node] = id;
  return id;
}

uint32_t CritPathCollector::BeginHandler(uint32_t node, const char* name, uint32_t trigger,
                                         SimTime ready, SimTime start) {
  const uint32_t id = NewActivity(Kind::kHandler, node, name);
  if (id == 0) {
    return 0;
  }
  Activity& a = activities_[id];
  a.start = start;
  a.ready = ready;
  a.trigger = trigger;
  if (trigger != 0) {
    a.branch_seg = activities_[trigger].seg_tail;
    Seal(trigger);
  }
  auto it = last_cpu_.find(node);
  a.res_pred = it != last_cpu_.end() ? it->second : 0;
  last_cpu_[node] = id;
  // Run-queue wait, booked kCpu exactly like the Path's CoverUntil(kCpu, start).
  PushSegment(id, Component::kCpu, start - ready, /*wait=*/true, /*open=*/false);
  return id;
}

uint32_t CritPathCollector::BeginTransit(uint32_t from, uint32_t to, const char* name,
                                         uint32_t trigger, SimTime dep, SimTime tx_start,
                                         SimTime tx_end, SimTime arrival, uint32_t nic,
                                         bool holds_nic) {
  const uint32_t id = NewActivity(Kind::kTransit, from, name);
  if (id == 0) {
    return 0;
  }
  Activity& a = activities_[id];
  a.peer = to;
  a.start = tx_start;
  a.ready = dep;
  a.trigger = trigger;
  a.holds_nic = holds_nic;
  if (trigger != 0) {
    a.branch_seg = activities_[trigger].seg_tail;
    Seal(trigger);
  }
  if (holds_nic) {
    auto it = last_nic_.find(nic);
    a.res_pred = it != last_nic_.end() ? it->second : 0;
    last_nic_[nic] = id;
  }
  // Mirror the Path's CoverUntil clamping: each phase only books time past the sender's
  // causal frontier `dep`, so per-commit segment sums equal path parts exactly.
  PushSegment(id, Component::kNicSerialization, std::min(tx_start, tx_end) - dep,
              /*wait=*/true, /*open=*/false);
  PushSegment(id, Component::kNicSerialization, tx_end - std::max(dep, tx_start),
              /*wait=*/false, /*open=*/false);
  PushSegment(id, Component::kNetPropagation, arrival - std::max(dep, tx_end),
              /*wait=*/false, /*open=*/false);
  Seal(id);
  return id;
}

void CritPathCollector::AddService(uint32_t activity, Component c, SimDuration d) {
  if (activity == 0 || activity >= activities_.size() || d <= 0) {
    return;
  }
  Activity& a = activities_[activity];
  if (a.open_seg != 0 && segments_[a.open_seg].comp == c) {
    segments_[a.open_seg].dur += d;
    return;
  }
  PushSegment(activity, c, d, /*wait=*/false, /*open=*/true);
}

void CritPathCollector::NoteInput(uint64_t key, uint32_t activity, SimTime at) {
  if (activity == 0 || activity >= activities_.size()) {
    return;
  }
  if (pending_joins_.size() > options_.max_pending_joins) {
    pending_joins_.clear();  // Deterministic bound on never-joined keys (stale views).
  }
  JoinRecord rec;
  rec.activity = activity;
  rec.branch_seg = activities_[activity].seg_tail;
  rec.at = at;
  Seal(activity);
  uint32_t& head = pending_joins_[key];
  rec.next = head;
  joins_.push_back(rec);
  head = static_cast<uint32_t>(joins_.size() - 1);
}

void CritPathCollector::JoinInputs(uint64_t key, uint32_t joiner, SimTime at) {
  auto it = pending_joins_.find(key);
  if (it == pending_joins_.end()) {
    return;
  }
  const uint32_t head = it->second;
  pending_joins_.erase(it);
  if (joiner == 0 || joiner >= activities_.size()) {
    return;
  }
  Activity& j = activities_[joiner];
  // Append the noted list (already reverse-chronological) to the joiner and fold slack:
  // how much earlier than the join each input arrived on this replica's CPU.
  uint32_t tail = head;
  while (true) {
    const JoinRecord& rec = joins_[tail];
    if (rec.activity != joiner) {
      const Activity& in = activities_[rec.activity];
      std::string cell = "n";
      AppendNum(&cell, in.node);
      cell += ';';
      cell += in.name;
      SlackCell& s = slack_[cell];
      const int64_t slack = at - rec.at;
      s.total_ns += slack;
      s.max_ns = std::max(s.max_ns, slack);
      ++s.joins;
    }
    if (rec.next == 0) {
      break;
    }
    tail = rec.next;
  }
  joins_[tail].next = j.join_head;
  j.join_head = head;
}

void CritPathCollector::OnConfirm(uint32_t activity, SimTime origin, uint64_t height,
                                  SimTime confirm, int64_t submit_sum_ns,
                                  uint64_t tx_count) {
  Commit c;
  c.activity = activity < activities_.size() ? activity : 0;
  c.tail_seg = c.activity != 0 ? activities_[c.activity].seg_tail : 0;
  c.origin = origin;
  c.confirm = confirm;
  c.height = height;
  c.submit_sum_ns = submit_sum_ns;
  c.tx_count = tx_count;
  Seal(c.activity);
  commits_.push_back(c);
}

void CritPathCollector::OnHostCrash(uint32_t node) { last_cpu_.erase(node); }

void CritPathCollector::ResetWindow() {
  commits_.clear();
  slack_.clear();
}

// --- Chain walking ---------------------------------------------------------------------

template <typename Fn>
void CritPathCollector::WalkChain(const Commit& commit, Fn&& fn) const {
  uint32_t cur = commit.activity;
  uint32_t bound = commit.tail_seg;
  while (cur != 0) {
    fn(cur, bound);
    const Activity& a = activities_[cur];
    cur = a.trigger;
    bound = a.branch_seg;
  }
}

// --- What-if engine --------------------------------------------------------------------

SimTime CritPathCollector::Frontier(const std::vector<SimTime>& start_s, uint32_t activity,
                                    uint32_t bound, const CritScales& scales) const {
  const Activity& a = activities_[activity];
  double sum = 0;
  for (uint32_t s = a.seg_head; s != 0 && s <= bound; s = segments_[s].next) {
    const Segment& seg = segments_[s];
    if (!seg.wait) {
      sum += scales[CompIdx(seg.comp)] * static_cast<double>(seg.dur);
    }
  }
  return start_s[activity] + static_cast<SimTime>(sum);
}

void CritPathCollector::Evaluate(const CritScales& scales, std::vector<SimTime>* start_s,
                                 std::vector<SimTime>* release) const {
  const size_t n = activities_.size();
  start_s->assign(n, 0);
  release->assign(n, 0);
  // Activity creation order is topological: trigger, join-input and resource edges all
  // point at earlier ids (they were live when the edge was recorded).
  for (uint32_t id = 1; id < n; ++id) {
    const Activity& a = activities_[id];
    SimTime ready;
    switch (a.kind) {
      case Kind::kOrigin:
        // Proposal points are pinned: what-if predicts origin->confirm, not pacing.
        (*start_s)[id] = a.start;
        break;
      case Kind::kHandler: {
        ready = a.trigger != 0 ? Frontier(*start_s, a.trigger, a.branch_seg, scales)
                               : a.ready;
        for (uint32_t jr = a.join_head; jr != 0; jr = joins_[jr].next) {
          const JoinRecord& rec = joins_[jr];
          if (rec.activity != id && rec.activity < id) {
            ready = std::max(ready, Frontier(*start_s, rec.activity, rec.branch_seg, scales));
          }
        }
        SimTime start = ready;
        // The release clamp explains recorded run-queue waits. An activity that started
        // right at its readiness found a free core in the recording, so its clamp is
        // non-binding at scale 1 and is dropped entirely: counterfactually shifted work
        // is assumed to find a free core too, instead of inheriting the recorded FIFO
        // order against time-pinned activities (timers, paced clients).
        if (a.res_pred != 0 && a.start > a.ready) {
          start = std::max(start, (*release)[a.res_pred]);
        }
        (*start_s)[id] = start;
        break;
      }
      case Kind::kTransit: {
        ready = a.trigger != 0 ? Frontier(*start_s, a.trigger, a.branch_seg, scales)
                               : a.ready;
        SimTime start = ready;
        // Same rule for the NIC: clamp only when the recorded send actually queued.
        if (a.holds_nic && a.res_pred != 0 && a.start > a.ready) {
          start = std::max(start, (*release)[a.res_pred]);
        }
        (*start_s)[id] = start;
        break;
      }
    }
    // Release: CPU horizon for handlers/origins, NIC-free for transits (service segments
    // only — for transits only the NIC serialization occupies the shared resource).
    double service = 0;
    for (uint32_t s = a.seg_head; s != 0; s = segments_[s].next) {
      const Segment& seg = segments_[s];
      if (seg.wait) {
        continue;
      }
      if (a.kind == Kind::kTransit && seg.comp != Component::kNicSerialization) {
        continue;
      }
      service += scales[CompIdx(seg.comp)] * static_cast<double>(seg.dur);
    }
    (*release)[id] = (*start_s)[id] + static_cast<SimTime>(service);
  }
}

double CritPathCollector::WhatIfMeanMs(const CritScales& scales) const {
  std::vector<SimTime> start_s;
  std::vector<SimTime> release;
  Evaluate(scales, &start_s, &release);
  double weighted_ns = 0;
  double txs = 0;
  for (const Commit& c : commits_) {
    if (c.activity == 0 || c.tx_count == 0) {
      continue;
    }
    const SimTime predicted = Frontier(start_s, c.activity, c.tail_seg, scales);
    weighted_ns += static_cast<double>(predicted - c.origin) * static_cast<double>(c.tx_count);
    txs += static_cast<double>(c.tx_count);
  }
  return txs > 0 ? weighted_ns / txs * kMsPerNs : 0.0;
}

// --- Aggregation -----------------------------------------------------------------------

CritSummary CritPathCollector::Summarize() const {
  CritSummary out;
  out.enabled = true;
  out.activities = used_activities_;
  out.segments = used_segments_;
  out.dropped_activities = dropped_activities_;
  out.dropped_segments = dropped_segments_;
  std::array<double, kNumComponents> sums{};
  double wait_sum = 0;
  double total_ns = 0;
  double txs = 0;
  for (const Commit& c : commits_) {
    if (c.activity == 0) {
      ++out.truncated;
      continue;
    }
    std::array<int64_t, kNumComponents> parts{};
    int64_t wait_ns = 0;
    bool anchored = true;
    WalkChain(c, [&](uint32_t id, uint32_t bound) {
      const Activity& a = activities_[id];
      for (uint32_t s = a.seg_head; s != 0 && s <= bound; s = segments_[s].next) {
        parts[CompIdx(segments_[s].comp)] += segments_[s].dur;
        if (segments_[s].wait) {
          wait_ns += segments_[s].dur;
        }
      }
      if (a.trigger == 0) {
        anchored = a.kind == Kind::kOrigin;
      }
    });
    ++out.commits;
    if (!anchored) {
      ++out.unanchored;
    }
    const double w = static_cast<double>(c.tx_count);
    for (size_t i = 0; i < kNumComponents; ++i) {
      sums[i] += static_cast<double>(parts[i]) * w;
    }
    wait_sum += static_cast<double>(wait_ns) * w;
    total_ns += static_cast<double>(c.confirm - c.origin) * w;
    txs += w;
  }
  if (txs > 0) {
    out.mean_ms = total_ns / txs * kMsPerNs;
    for (size_t i = 0; i < kNumComponents; ++i) {
      out.crit_ms[i] = sums[i] / txs * kMsPerNs;
    }
    out.wait_ms = wait_sum / txs * kMsPerNs;
  }
  // Canned what-if scenarios (mean per-tx commit latency under scaled costs).
  CritScales scales = CritScalesOnes();
  out.baseline_ms = WhatIfMeanMs(scales);
  scales[CompIdx(Component::kFsync)] = 0.0;
  out.zero_fsync_ms = WhatIfMeanMs(scales);
  scales = CritScalesOnes();
  scales[CompIdx(Component::kEcall)] = 0.0;
  out.zero_ecall_ms = WhatIfMeanMs(scales);
  scales = CritScalesOnes();
  scales[CompIdx(Component::kCrypto)] = 0.0;
  out.zero_crypto_ms = WhatIfMeanMs(scales);
  scales = CritScalesOnes();
  scales[CompIdx(Component::kCrypto)] = 2.0;
  out.double_crypto_ms = WhatIfMeanMs(scales);
  scales = CritScalesOnes();
  scales[CompIdx(Component::kNetPropagation)] = 0.0;
  scales[CompIdx(Component::kNicSerialization)] = 0.0;
  out.zero_net_ms = WhatIfMeanMs(scales);
  out.digest_hex = DigestHex();
  return out;
}

std::vector<CritBlameEntry> CritPathCollector::BlameProfile() const {
  // Key: where \x1f phase \x1f component-index (+8 for waits).
  std::unordered_map<std::string, CritBlameEntry> cells;
  for (const Commit& c : commits_) {
    if (c.activity == 0) {
      continue;
    }
    WalkChain(c, [&](uint32_t id, uint32_t bound) {
      const Activity& a = activities_[id];
      for (uint32_t s = a.seg_head; s != 0 && s <= bound; s = segments_[s].next) {
        const Segment& seg = segments_[s];
        std::string key = "n";
        AppendNum(&key, a.node);
        if (a.kind == Kind::kTransit) {
          key += "->n";
          AppendNum(&key, a.peer);
        }
        key += '\x1f';
        key += a.name;
        key += '\x1f';
        AppendNum(&key, static_cast<long long>(CompIdx(seg.comp)) + (seg.wait ? 8 : 0));
        CritBlameEntry& cell = cells[key];
        if (cell.hits == 0) {
          const size_t cut1 = key.find('\x1f');
          const size_t cut2 = key.find('\x1f', cut1 + 1);
          cell.where = key.substr(0, cut1);
          cell.phase = key.substr(cut1 + 1, cut2 - cut1 - 1);
          cell.component = seg.comp;
          cell.wait = seg.wait;
        }
        cell.ns += seg.dur;
        ++cell.hits;
      }
    });
  }
  std::vector<CritBlameEntry> out;
  out.reserve(cells.size());
  for (auto& [key, cell] : cells) {
    out.push_back(std::move(cell));
  }
  std::sort(out.begin(), out.end(), [](const CritBlameEntry& a, const CritBlameEntry& b) {
    if (a.ns != b.ns) return a.ns > b.ns;
    if (a.where != b.where) return a.where < b.where;
    if (a.phase != b.phase) return a.phase < b.phase;
    return CompIdx(a.component) + (a.wait ? 8 : 0) < CompIdx(b.component) + (b.wait ? 8 : 0);
  });
  return out;
}

std::vector<CritSlackEntry> CritPathCollector::SlackProfile() const {
  std::vector<CritSlackEntry> out;
  out.reserve(slack_.size());
  for (const auto& [key, cell] : slack_) {
    CritSlackEntry e;
    const size_t cut = key.find(';');
    e.where = key.substr(0, cut);
    e.phase = key.substr(cut + 1);
    e.total_ns = cell.total_ns;
    e.max_ns = cell.max_ns;
    e.joins = cell.joins;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const CritSlackEntry& a, const CritSlackEntry& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    if (a.where != b.where) return a.where < b.where;
    return a.phase < b.phase;
  });
  return out;
}

std::string CritPathCollector::DigestHex() const {
  // Canonical dump: per commit (in confirmation order), the confirm-first chain with each
  // activity's kind, endpoints, recorded times and bounded segment list. No pool indexes,
  // so the digest only depends on the executed schedule — identical across engines and
  // replays by the simulator's own determinism guarantee.
  std::string text;
  text.reserve(commits_.size() * 256);
  for (const Commit& c : commits_) {
    text += "commit h=";
    AppendNum(&text, static_cast<long long>(c.height));
    text += " o=";
    AppendNum(&text, c.origin);
    text += " c=";
    AppendNum(&text, c.confirm);
    text += " tx=";
    AppendNum(&text, static_cast<long long>(c.tx_count));
    text += '\n';
    if (c.activity == 0) {
      text += " truncated\n";
      continue;
    }
    WalkChain(c, [&](uint32_t id, uint32_t bound) {
      const Activity& a = activities_[id];
      text += ' ';
      text += a.kind == Kind::kOrigin ? 'O' : (a.kind == Kind::kHandler ? 'H' : 'T');
      text += " n";
      AppendNum(&text, a.node);
      if (a.kind == Kind::kTransit) {
        text += "->n";
        AppendNum(&text, a.peer);
      }
      text += ' ';
      text += a.name;
      text += " r=";
      AppendNum(&text, a.ready);
      text += " s=";
      AppendNum(&text, a.start);
      for (uint32_t s = a.seg_head; s != 0 && s <= bound; s = segments_[s].next) {
        text += ' ';
        text += ComponentName(segments_[s].comp);
        if (segments_[s].wait) {
          text += "(w)";
        }
        text += ':';
        AppendNum(&text, segments_[s].dur);
      }
      text += '\n';
    });
  }
  const Hash256 digest = Sha256Digest(
      ByteView(reinterpret_cast<const uint8_t*>(text.data()), text.size()));
  return HashToHex(digest);
}

// --- Exports ---------------------------------------------------------------------------

void CritSummary::ToJson(JsonWriter& w) const {
  w.BeginObject();
  w.Field("enabled", enabled);
  w.Field("commits", commits);
  w.Field("truncated", truncated);
  w.Field("unanchored", unanchored);
  w.Field("activities", activities);
  w.Field("segments", segments);
  w.Field("dropped_activities", dropped_activities);
  w.Field("dropped_segments", dropped_segments);
  w.Field("mean_ms", mean_ms);
  w.Field("wait_ms", wait_ms);
  w.KeyBeginObject("crit_ms");
  for (size_t i = 0; i < kNumComponents; ++i) {
    w.Field(ComponentName(static_cast<Component>(i)), crit_ms[i]);
  }
  w.EndObject();
  w.KeyBeginObject("what_if_ms");
  w.Field("baseline", baseline_ms);
  w.Field("zero_fsync", zero_fsync_ms);
  w.Field("zero_ecall", zero_ecall_ms);
  w.Field("zero_crypto", zero_crypto_ms);
  w.Field("double_crypto", double_crypto_ms);
  w.Field("zero_net", zero_net_ms);
  w.EndObject();
  w.Field("digest", digest_hex);
  w.EndObject();
}

std::string CritPathCollector::ProfileJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("summary");
  Summarize().ToJson(w);
  w.KeyBeginArray("blame");
  for (const CritBlameEntry& e : BlameProfile()) {
    w.BeginObject();
    w.Field("where", e.where);
    w.Field("phase", e.phase);
    w.Field("component", ComponentName(e.component));
    w.Field("wait", e.wait);
    w.Field("ns", static_cast<uint64_t>(e.ns));
    w.Field("hits", e.hits);
    w.EndObject();
  }
  w.EndArray();
  w.KeyBeginArray("slack");
  for (const CritSlackEntry& e : SlackProfile()) {
    w.BeginObject();
    w.Field("where", e.where);
    w.Field("phase", e.phase);
    w.Field("total_ns", static_cast<uint64_t>(e.total_ns));
    w.Field("max_ns", static_cast<uint64_t>(e.max_ns));
    w.Field("joins", e.joins);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string CritPathCollector::FoldedStacks() const {
  std::string out;
  for (const CritBlameEntry& e : BlameProfile()) {
    out += e.where;
    out += ';';
    out += e.phase;
    out += ';';
    out += ComponentName(e.component);
    if (e.wait) {
      out += ";wait";
    }
    out += ' ';
    AppendNum(&out, e.ns);
    out += '\n';
  }
  return out;
}

std::string CritPathCollector::PerfettoJson(size_t max_commits) const {
  // Slowest commits first: the interesting chains are the tail, not the median.
  std::vector<const Commit*> picked;
  picked.reserve(commits_.size());
  for (const Commit& c : commits_) {
    if (c.activity != 0) {
      picked.push_back(&c);
    }
  }
  std::sort(picked.begin(), picked.end(), [](const Commit* a, const Commit* b) {
    const SimTime la = a->confirm - a->origin;
    const SimTime lb = b->confirm - b->origin;
    if (la != lb) return la > lb;
    return a->height < b->height;
  });
  if (picked.size() > max_commits) {
    picked.resize(max_commits);
  }
  JsonWriter w;
  w.BeginObject().KeyBeginArray("traceEvents");
  uint32_t pid = 0;
  for (const Commit* c : picked) {
    ++pid;
    std::string pname = "commit h=";
    AppendNum(&pname, static_cast<long long>(c->height));
    w.BeginObject()
        .Field("ph", "M")
        .Field("name", "process_name")
        .Field("pid", pid)
        .Field("tid", static_cast<uint32_t>(0));
    w.KeyBeginObject("args").Field("name", pname).EndObject();
    w.EndObject();
    WalkChain(*c, [&](uint32_t id, uint32_t bound) {
      const Activity& a = activities_[id];
      int64_t span_ns = 0;
      std::array<int64_t, kNumComponents> parts{};
      int64_t wait_ns = 0;
      for (uint32_t s = a.seg_head; s != 0 && s <= bound; s = segments_[s].next) {
        span_ns += segments_[s].dur;
        parts[CompIdx(segments_[s].comp)] += segments_[s].dur;
        if (segments_[s].wait) {
          wait_ns += segments_[s].dur;
        }
      }
      std::string lane = "n";
      AppendNum(&lane, a.node);
      if (a.kind == Kind::kTransit) {
        lane += "->n";
        AppendNum(&lane, a.peer);
      }
      // Lanes: hosts on their own tid, links on 100 + sender (metadata names them).
      const uint32_t tid =
          a.kind == Kind::kTransit ? 100 + a.node * 32 + a.peer : a.node;
      w.BeginObject()
          .Field("ph", "M")
          .Field("name", "thread_name")
          .Field("pid", pid)
          .Field("tid", tid);
      w.KeyBeginObject("args").Field("name", lane).EndObject();
      w.EndObject();
      w.BeginObject()
          .Field("ph", "X")
          .Field("cat", "critpath")
          .Field("name", a.name)
          .Field("pid", pid)
          .Field("tid", tid)
          .Field("ts", static_cast<double>(a.ready) / 1e3)
          .Field("dur", static_cast<double>(span_ns) / 1e3);
      w.KeyBeginObject("args");
      w.Field("wait_us", static_cast<double>(wait_ns) / 1e3);
      for (size_t i = 0; i < kNumComponents; ++i) {
        if (parts[i] != 0) {
          w.Field(ComponentName(static_cast<Component>(i)),
                  static_cast<double>(parts[i]) / 1e3);
        }
      }
      w.EndObject();
      w.EndObject();
    });
  }
  w.EndArray().EndObject();
  return w.Take();
}

}  // namespace obs
}  // namespace achilles
