#include "obs/jsonl.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace chopper::obs {
namespace {

// -- kind names ---------------------------------------------------------------

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kClusterInfo, "cluster"},
    {EventKind::kJobSubmit, "job_submit"},
    {EventKind::kJobFinish, "job_finish"},
    {EventKind::kStageStart, "stage_start"},
    {EventKind::kStageRetry, "stage_retry"},
    {EventKind::kStageEnd, "stage_end"},
    {EventKind::kTaskSpan, "task"},
    {EventKind::kShuffleWrite, "shuffle_write"},
    {EventKind::kShuffleSpill, "shuffle_spill"},
    {EventKind::kShuffleReplay, "shuffle_replay"},
    {EventKind::kFetchFailure, "fetch_failure"},
    {EventKind::kNodeDown, "node_down"},
    {EventKind::kNodeUp, "node_up"},
    {EventKind::kBlockStore, "block_store"},
    {EventKind::kBlockEvict, "block_evict"},
    {EventKind::kBlockHeal, "block_heal"},
    {EventKind::kPlanDecision, "plan"},
    {EventKind::kPoolGrant, "pool_grant"},
    {EventKind::kCollectorIngest, "ingest"},
    {EventKind::kFetchRetry, "fetch_retry"},
    {EventKind::kChecksumFail, "checksum_fail"},
    {EventKind::kNodeExcluded, "node_excluded"},
    {EventKind::kNodeReadmitted, "node_readmit"},
    {EventKind::kResume, "resume"},
    {EventKind::kCachePlanDecision, "cache_plan"},
    {EventKind::kCacheHit, "cache_hit"},
};

// -- field table --------------------------------------------------------------
//
// One row per Event field. The writer walks the table and emits every field
// whose value differs from a default-constructed Event; the parser looks the
// key up and stores into the matching member. Exactly one member pointer per
// row is non-null.

struct FieldDesc {
  const char* key;
  std::uint64_t Event::* u64 = nullptr;
  std::int64_t Event::* i64 = nullptr;
  double Event::* f64 = nullptr;
  std::string Event::* str = nullptr;
  std::vector<std::uint64_t> Event::* list = nullptr;
};

const FieldDesc kFields[] = {
    {"job", &Event::job},
    {"stage", &Event::stage},
    {"plan_index", &Event::plan_index},
    {"task", &Event::task},
    {"node", &Event::node},
    {"slot", &Event::slot},
    {"shuffle", &Event::shuffle},
    {"dataset", &Event::dataset},
    {"token", &Event::token},
    {"sig", &Event::signature},
    {"attempt", &Event::attempt},
    {"flags", &Event::flags},
    {"t0", nullptr, nullptr, &Event::t_start},
    {"t1", nullptr, nullptr, &Event::t_end},
    {"compute_s", nullptr, nullptr, &Event::compute_s},
    {"fetch_s", nullptr, nullptr, &Event::fetch_s},
    {"sim_time_s", nullptr, nullptr, &Event::sim_time_s},
    {"sim_start_s", nullptr, nullptr, &Event::sim_start_s},
    {"wall_time_s", nullptr, nullptr, &Event::wall_time_s},
    {"recovery_s", nullptr, nullptr, &Event::recovery_time_s},
    {"value", nullptr, nullptr, &Event::value},
    {"value2", nullptr, nullptr, &Event::value2},
    {"rin", &Event::records_in},
    {"rout", &Event::records_out},
    {"bin", &Event::bytes_in},
    {"bout", &Event::bytes_out},
    {"bytes", &Event::bytes},
    {"srr", &Event::shuffle_read_remote},
    {"srl", &Event::shuffle_read_local},
    {"srb", &Event::shuffle_read_bytes},
    {"swb", &Event::shuffle_write_bytes},
    {"P", &Event::num_partitions},
    {"partitioner", &Event::partitioner},
    {"anchor_op", &Event::anchor_op},
    {"count", &Event::count},
    {"oom", &Event::oom_count},
    {"stage_attempts", &Event::stage_attempts},
    {"rtasks", &Event::recomputed_tasks},
    {"rbytes", &Event::recomputed_bytes},
    {"lost", &Event::lost_bytes},
    {"evicted", &Event::evicted_bytes},
    {"spilled", &Event::spilled_bytes},
    {"peak", &Event::peak_resident_bytes},
    {"fretries", &Event::fetch_retries},
    {"refetched", &Event::refetched_bytes},
    {"cksum_fail", &Event::checksum_failures},
    {"excl", &Event::node_exclusions},
    {"p_min", &Event::p_min},
    {"resumed", &Event::resumed_stages},
    {"replayed", &Event::replayed_events},
    {"restored", &Event::restored_bytes},
    {"recovery_wall_s", nullptr, nullptr, &Event::recovery_wall_s},
    {"chits", &Event::cache_hits},
    {"cmisses", &Event::cache_misses},
    {"csaved", &Event::recompute_saved_bytes},
    {"ev_lru", &Event::evictions_lru},
    {"ev_cost", &Event::evictions_cost},
    {"group", nullptr, &Event::group},
    {"name", nullptr, nullptr, nullptr, &Event::name},
    {"detail", nullptr, nullptr, nullptr, &Event::detail},
    {"list", nullptr, nullptr, nullptr, nullptr, &Event::list},
    {"list2", nullptr, nullptr, nullptr, nullptr, &Event::list2},
};

const Event kDefaults{};

// -- writing ------------------------------------------------------------------

void append_u64(std::uint64_t v, std::string& out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::int64_t v, std::string& out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_f64(double v, std::string& out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

void append_json_quoted(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

// -- parsing ------------------------------------------------------------------
//
// Minimal recursive-descent parser for the flat objects we write. Tolerates
// unknown keys by skipping their values (strings, numbers, booleans, null,
// and flat arrays).

struct Cursor {
  const char* p;
  const char* end;

  bool eof() const noexcept { return p >= end; }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) ++p;
  }
  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
};

bool parse_string(Cursor& c, std::string* out) {
  if (!c.eat('"')) return false;
  while (!c.eof()) {
    char ch = *c.p++;
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.eof()) return false;
      char esc = *c.p++;
      switch (esc) {
        case '"': if (out) *out += '"'; break;
        case '\\': if (out) *out += '\\'; break;
        case '/': if (out) *out += '/'; break;
        case 'n': if (out) *out += '\n'; break;
        case 'r': if (out) *out += '\r'; break;
        case 't': if (out) *out += '\t'; break;
        case 'b': if (out) *out += '\b'; break;
        case 'f': if (out) *out += '\f'; break;
        case 'u': {
          if (c.end - c.p < 4) return false;
          char hex[5] = {c.p[0], c.p[1], c.p[2], c.p[3], 0};
          c.p += 4;
          const long code = std::strtol(hex, nullptr, 16);
          // We only ever escape control characters; anything else is kept
          // as-is when it fits one byte.
          if (out && code >= 0 && code < 256) *out += static_cast<char>(code);
          break;
        }
        default:
          return false;
      }
    } else if (out) {
      *out += ch;
    }
  }
  return false;
}

/// Extract the raw token of a JSON number without losing integer precision:
/// the caller converts with strtoull/strtoll/strtod as the field demands.
bool parse_number_token(Cursor& c, std::string* tok) {
  c.skip_ws();
  const char* start = c.p;
  if (c.p < c.end && (*c.p == '-' || *c.p == '+')) ++c.p;
  while (c.p < c.end &&
         (std::isdigit(static_cast<unsigned char>(*c.p)) || *c.p == '.' ||
          *c.p == 'e' || *c.p == 'E' || *c.p == '-' || *c.p == '+')) {
    ++c.p;
  }
  if (c.p == start) return false;
  if (tok) tok->assign(start, c.p);
  return true;
}

bool parse_u64_list(Cursor& c, std::vector<std::uint64_t>* out) {
  if (!c.eat('[')) return false;
  c.skip_ws();
  if (c.eat(']')) return true;
  while (true) {
    std::string tok;
    if (!parse_number_token(c, &tok)) return false;
    if (out) out->push_back(std::strtoull(tok.c_str(), nullptr, 10));
    if (c.eat(']')) return true;
    if (!c.eat(',')) return false;
  }
}

/// Skip any flat JSON value (for unknown keys).
bool skip_value(Cursor& c) {
  c.skip_ws();
  if (c.eof()) return false;
  switch (*c.p) {
    case '"': return parse_string(c, nullptr);
    case '[': return parse_u64_list(c, nullptr);
    case 't': case 'f': case 'n': {
      while (c.p < c.end && std::isalpha(static_cast<unsigned char>(*c.p))) ++c.p;
      return true;
    }
    default: return parse_number_token(c, nullptr);
  }
}

const FieldDesc* find_field(const std::string& key) {
  for (const FieldDesc& f : kFields) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

}  // namespace

const char* to_string(EventKind kind) noexcept {
  for (const KindName& k : kKindNames) {
    if (k.kind == kind) return k.name;
  }
  return "none";
}

EventKind parse_event_kind(const std::string& name) noexcept {
  for (const KindName& k : kKindNames) {
    if (name == k.name) return k.kind;
  }
  return EventKind::kNone;
}

std::string jsonl_header() {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"chopper_event_log\":%u}", kSchemaVersion);
  return buf;
}

bool parse_jsonl_header(const std::string& line) {
  const char* tag = "\"chopper_event_log\"";
  const auto pos = line.find(tag);
  if (pos == std::string::npos) return false;
  const auto colon = line.find(':', pos);
  if (colon == std::string::npos) return false;
  const unsigned long v = std::strtoul(line.c_str() + colon + 1, nullptr, 10);
  return v >= 1 && v <= kSchemaVersion;
}

void append_jsonl(const Event& e, std::string& out) {
  out += "{\"seq\":";
  append_u64(e.seq, out);
  out += ",\"k\":\"";
  out += to_string(e.kind);
  out += "\",\"sim\":";
  append_f64(e.sim, out);
  out += ",\"wall\":";
  append_f64(e.wall, out);
  for (const FieldDesc& f : kFields) {
    if (f.u64) {
      if (e.*f.u64 == kDefaults.*f.u64) continue;
      out += ",\"";
      out += f.key;
      out += "\":";
      append_u64(e.*f.u64, out);
    } else if (f.i64) {
      if (e.*f.i64 == kDefaults.*f.i64) continue;
      out += ",\"";
      out += f.key;
      out += "\":";
      append_i64(e.*f.i64, out);
    } else if (f.f64) {
      if (e.*f.f64 == kDefaults.*f.f64) continue;
      out += ",\"";
      out += f.key;
      out += "\":";
      append_f64(e.*f.f64, out);
    } else if (f.str) {
      if ((e.*f.str).empty()) continue;
      out += ",\"";
      out += f.key;
      out += "\":";
      append_json_quoted(e.*f.str, out);
    } else if (f.list) {
      const auto& v = e.*f.list;
      if (v.empty()) continue;
      out += ",\"";
      out += f.key;
      out += "\":[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ',';
        append_u64(v[i], out);
      }
      out += ']';
    }
  }
  out += "}\n";
}

std::string to_jsonl(const Event& e) {
  std::string out;
  append_jsonl(e, out);
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::optional<Event> from_jsonl(const std::string& line) {
  return from_jsonl(line, nullptr);
}

std::optional<Event> from_jsonl(const std::string& line, bool* unknown_kind) {
  if (unknown_kind != nullptr) *unknown_kind = false;
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) return std::nullopt;
  Event e;
  bool have_kind = false;
  bool saw_kind_key = false;
  c.skip_ws();
  if (c.eat('}')) return std::nullopt;
  while (true) {
    std::string key;
    if (!parse_string(c, &key)) return std::nullopt;
    if (!c.eat(':')) return std::nullopt;
    if (key == "seq") {
      std::string tok;
      if (!parse_number_token(c, &tok)) return std::nullopt;
      e.seq = std::strtoull(tok.c_str(), nullptr, 10);
    } else if (key == "k") {
      std::string name;
      if (!parse_string(c, &name)) return std::nullopt;
      e.kind = parse_event_kind(name);
      have_kind = e.kind != EventKind::kNone;
      saw_kind_key = true;
    } else if (key == "sim") {
      std::string tok;
      if (!parse_number_token(c, &tok)) return std::nullopt;
      e.sim = std::strtod(tok.c_str(), nullptr);
    } else if (key == "wall") {
      std::string tok;
      if (!parse_number_token(c, &tok)) return std::nullopt;
      e.wall = std::strtod(tok.c_str(), nullptr);
    } else if (const FieldDesc* f = find_field(key)) {
      if (f->u64) {
        std::string tok;
        if (!parse_number_token(c, &tok)) return std::nullopt;
        e.*f->u64 = std::strtoull(tok.c_str(), nullptr, 10);
      } else if (f->i64) {
        std::string tok;
        if (!parse_number_token(c, &tok)) return std::nullopt;
        e.*f->i64 = std::strtoll(tok.c_str(), nullptr, 10);
      } else if (f->f64) {
        std::string tok;
        if (!parse_number_token(c, &tok)) return std::nullopt;
        e.*f->f64 = std::strtod(tok.c_str(), nullptr);
      } else if (f->str) {
        if (!parse_string(c, &(e.*f->str))) return std::nullopt;
      } else if (f->list) {
        if (!parse_u64_list(c, &(e.*f->list))) return std::nullopt;
      }
    } else {
      if (!skip_value(c)) return std::nullopt;  // unknown key: tolerate
    }
    if (c.eat('}')) break;
    if (!c.eat(',')) return std::nullopt;
  }
  if (!have_kind) {
    // A well-formed record whose "k" names a kind this binary does not know
    // is a forward-compat skip, not corruption — report it as such so
    // readers can warn accurately (HistoryReader counts the two separately).
    if (saw_kind_key && unknown_kind != nullptr) *unknown_kind = true;
    return std::nullopt;
  }
  return e;
}

}  // namespace chopper::obs
