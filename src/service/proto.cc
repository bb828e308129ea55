#include "service/proto.h"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/error.h"
#include "support/str.h"

namespace srra::service {

namespace {

const char* fetch_name(bool concurrent) { return concurrent ? "concurrent" : "serial"; }
const char* mode_name(bool frontier) { return frontier ? "frontier" : "budget"; }

std::string hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

// ------------------------------------------------------------------ framing

void write_frame(std::ostream& os, std::string_view payload) {
  check(payload.size() <= kMaxFrameBytes, "write_frame: payload too large");
  os << payload.size() << '\n' << payload;
}

std::optional<std::string> read_frame(std::istream& is) {
  // Length line: decimal digits terminated by '\n'. EOF before the first
  // digit is a clean end of stream; EOF anywhere later is a torn frame.
  std::string line;
  for (;;) {
    const int c = is.get();
    if (c == std::char_traits<char>::eof()) {
      if (line.empty()) return std::nullopt;
      fail("read_frame: end of stream inside frame header");
    }
    if (c == '\n') break;
    check(c >= '0' && c <= '9', "read_frame: malformed frame length");
    check(line.size() < 9, "read_frame: frame length line too long");
    line += static_cast<char>(c);
  }
  check(!line.empty(), "read_frame: empty frame length");
  const unsigned long long n = std::stoull(line);
  check(n <= kMaxFrameBytes, "read_frame: frame larger than kMaxFrameBytes");
  std::string payload(static_cast<std::size_t>(n), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(n));
  check(static_cast<unsigned long long>(is.gcount()) == n,
        "read_frame: end of stream inside frame payload");
  return payload;
}

int extract_frame(std::string& buffer, std::string& payload) {
  const std::size_t limit = buffer.size() < 10 ? buffer.size() : 10;
  std::size_t eol = std::string::npos;
  for (std::size_t i = 0; i < limit; ++i) {
    const char c = buffer[i];
    if (c == '\n') {
      eol = i;
      break;
    }
    if (c < '0' || c > '9') return -1;
  }
  if (eol == std::string::npos) return buffer.size() >= 10 ? -1 : 0;
  if (eol == 0) return -1;
  const unsigned long long n = std::stoull(buffer.substr(0, eol));
  if (n > kMaxFrameBytes) return -1;
  const std::size_t total = eol + 1 + static_cast<std::size_t>(n);
  if (buffer.size() < total) return 0;
  payload = buffer.substr(eol + 1, static_cast<std::size_t>(n));
  buffer.erase(0, total);
  return 1;
}

// ----------------------------------------------------------------- requests

Request parse_request(const std::string& payload) {
  JsonValue doc;
  try {
    doc = parse_json(payload);
  } catch (const Error& e) {
    fail(cat("request is not valid JSON: ", e.message()));
  }
  check(doc.is_object(), "request must be a JSON object");

  Request request;
  bool saw_kernel = false, saw_key = false, saw_budget = false, saw_budgets = false,
       saw_mode = false, saw_probe = false, saw_query_field = false,
       saw_pull_field = false;
  for (const JsonValue::Member& member : doc.members()) {
    const std::string& name = member.first;
    const JsonValue& value = member.second;
    if (name == "op") {
      const std::string& op = value.as_string();
      if (op == "query") request.op = RequestOp::kQuery;
      else if (op == "health") request.op = RequestOp::kHealth;
      else if (op == "shutdown") request.op = RequestOp::kShutdown;
      else if (op == "pull") request.op = RequestOp::kPull;
      else fail(cat("unknown op '", op, "' (want query|health|shutdown|pull)"));
    } else if (name == "id") {
      request.id = value.as_string();
    } else if (name == "kernel") {
      request.kernel = value.as_string();
      check(!request.kernel.empty(), "request member 'kernel' must be non-empty");
      saw_kernel = saw_query_field = true;
    } else if (name == "key") {
      request.key = value.as_string();
      check(request.key.size() == 16 &&
                request.key.find_first_not_of("0123456789abcdef") == std::string::npos,
            "request member 'key' must be 16 lowercase hex characters");
      saw_key = saw_query_field = true;
    } else if (name == "transforms") {
      request.transforms = value.as_string();
      saw_query_field = true;
    } else if (name == "algorithm") {
      request.algorithm = value.as_string();
      check(!request.algorithm.empty(), "request member 'algorithm' must be non-empty");
      saw_query_field = true;
    } else if (name == "mode") {
      const std::string& mode = value.as_string();
      if (mode == "budget") request.frontier = false;
      else if (mode == "frontier") request.frontier = true;
      else fail(cat("unknown mode '", mode, "' (want budget|frontier)"));
      saw_mode = saw_query_field = true;
    } else if (name == "budget") {
      request.budget = value.as_int();
      check(request.budget >= 1, "request member 'budget' must be >= 1");
      saw_budget = saw_query_field = true;
    } else if (name == "budgets") {
      request.budgets = value.as_string();
      check(!request.budgets.empty(), "request member 'budgets' must be non-empty");
      saw_budgets = saw_query_field = true;
    } else if (name == "fetch") {
      request.fetch = value.as_bool();
      saw_query_field = true;
    } else if (name == "probe") {
      request.probe = value.as_bool();
      saw_probe = saw_query_field = true;
    } else if (name == "timing") {
      request.timing = value.as_bool();
    } else if (name == "limit") {
      request.limit = value.as_int();
      check(request.limit >= 1, "request member 'limit' must be >= 1");
      saw_pull_field = true;
    } else if (name == "offset") {
      request.offset = value.as_int();
      check(request.offset >= 0, "request member 'offset' must be >= 0");
      saw_pull_field = true;
    } else {
      fail(cat("unknown request member '", name, "'"));
    }
  }

  if (request.op == RequestOp::kPull) {
    check(!saw_query_field && !saw_probe,
          "pull requests take only 'op', 'id', 'limit' and 'offset'");
    return request;
  }
  check(!saw_pull_field, "'limit' and 'offset' are pull-op members");
  if (request.op != RequestOp::kQuery) {
    check(!saw_query_field && !saw_probe,
          "health/shutdown requests take only 'op', 'id' and 'timing'");
    return request;
  }

  check(saw_kernel || saw_key, "query needs 'kernel' (name or DSL text) or 'key'");
  check(!(saw_kernel && saw_key), "'kernel' and 'key' are mutually exclusive");
  if (saw_key) {
    check(request.probe, "'key' queries are cache-only probes; set \"probe\": true");
    check(request.transforms.empty() && !saw_budget && !saw_budgets && !saw_mode,
          "'key' already identifies the query; drop transforms/mode/budget members");
  }
  if (request.frontier) {
    check(!saw_budget, "frontier mode takes 'budgets', not 'budget'");
  } else {
    check(!saw_budgets, "budget mode takes 'budget', not 'budgets'");
  }
  return request;
}

std::string cache_key(std::uint64_t kernel_hash, std::string_view kernel_name,
                      const Request& request) {
  const std::string material =
      cat(kKeyVersion, '|', hex16(kernel_hash), '|', kernel_name, '|',
          request.transforms, '|', request.algorithm, '|', mode_name(request.frontier),
          '|', request.frontier ? request.budgets : std::to_string(request.budget), '|',
          fetch_name(request.fetch));
  return hex16(fnv1a64(material));
}

std::string payload_hash(std::string_view payload) {
  return hex16(fnv1a64(payload));
}

bool valid_query_payload(std::string_view payload) {
  try {
    return parse_json(payload).is_object();
  } catch (const Error&) {
    return false;
  }
}

// ------------------------------------------------- query report (cached unit)

QueryReport evaluate_query(const RefModel& model, const QueryInput& input) {
  QueryReport report;
  report.kernel_name = input.kernel_name;
  report.transforms = input.transforms;
  report.kernel_hash = input.kernel_hash;
  report.algorithm = algorithm_name(input.algorithm);
  report.fetch = input.fetch;
  report.frontier = input.frontier;
  report.outer_trip = model.kernel().loop(0).trip_count();

  PipelineOptions options;
  options.cycles.concurrent_operand_fetch = input.fetch;
  if (!input.frontier) {
    report.budget = input.budget;
    options.budget = input.budget;
    try {
      DesignPoint design = run_pipeline(model, input.algorithm, options);
      report.points.emplace_back(input.budget, std::move(design));
    } catch (const Error& e) {
      report.feasible = false;  // budget below the feasibility assignment
      // The bare message: cached bytes must not depend on where or from
      // which revision the daemon was built.
      report.error = e.message();
    }
  } else {
    std::vector<DesignPoint> designs =
        run_budget_sweep(model, {input.algorithm}, input.budgets, options);
    for (DesignPoint& design : designs) {
      const std::int64_t budget = design.allocation.budget;
      report.points.emplace_back(budget, std::move(design));
    }
  }
  return report;
}

void write_design_point_fields(JsonWriter& json, const DesignPoint& design,
                               std::int64_t outer_trip) {
  json.field("registers", design.allocation.total());
  json.field("distribution", design.allocation.distribution());
  json.field("mem_cycles", design.cycles.mem_cycles);
  json.field("mem_cycles_per_outer", design.cycles.mem_cycles_per_outer(outer_trip));
  json.field("ram_accesses", design.cycles.ram_accesses);
  json.field("exec_cycles", design.cycles.exec_cycles);
  json.field("clock_ns", design.hw.clock_ns);
  json.field("time_us", design.time_us());
  json.field("slices", design.hw.slices);
  json.field("occupancy", design.hw.occupancy);
  json.field("block_rams", design.hw.block_rams);
}

void write_query_report(JsonWriter& json, const QueryReport& report) {
  json.begin_object();
  json.field("schema", kQuerySchema);
  json.field("kernel", report.kernel_name);
  json.field("transforms", report.transforms);
  json.field("structural_hash", hex16(report.kernel_hash));
  json.field("algorithm", report.algorithm);
  json.field("fetch", fetch_name(report.fetch));
  json.field("mode", mode_name(report.frontier));
  if (!report.frontier) {
    json.field("budget", report.budget);
    json.field("feasible", report.feasible);
    if (!report.feasible) {
      json.field("error", report.error);
    } else {
      check(report.points.size() == 1, "budget-mode report needs exactly one point");
      json.key("point");
      json.begin_object();
      write_design_point_fields(json, report.points.front().second, report.outer_trip);
      json.end_object();
    }
  } else {
    json.key("points");
    json.begin_array();
    for (const auto& [budget, design] : report.points) {
      json.begin_object();
      json.field("budget", budget);
      write_design_point_fields(json, design, report.outer_trip);
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
}

std::string query_payload(const QueryReport& report) {
  std::ostringstream os;
  JsonWriter json(os);
  write_query_report(json, report);
  return os.str();
}

// ---------------------------------------------------------------- responses

namespace {

/// Opens an envelope: {"schema", "id" (when non-empty), "ok", ...
void begin_envelope(JsonWriter& json, const std::string& id, bool ok) {
  json.begin_object();
  json.field("schema", kServiceSchema);
  if (!id.empty()) json.field("id", id);
  json.field("ok", ok);
}

}  // namespace

std::string make_query_response(const ResponseMeta& meta, const std::string& payload) {
  std::ostringstream os;
  JsonWriter json(os);
  begin_envelope(json, meta.id, /*ok=*/true);
  if (!meta.cache_status.empty()) {
    json.key("cache");
    json.begin_object();
    json.field("status", meta.cache_status);
    json.field("key", meta.key);
    json.end_object();
  }
  if (meta.elapsed_us >= 0) json.field("elapsed_us", meta.elapsed_us);
  if (!payload.empty()) {
    json.key("query");
    json.splice(payload);  // computed in process, or validated where it entered
  }
  json.end_object();
  return os.str();
}

std::string make_error_response(const std::string& id, const std::string& message) {
  std::ostringstream os;
  JsonWriter json(os);
  begin_envelope(json, id, /*ok=*/false);
  json.field("error", message);
  json.end_object();
  return os.str();
}

std::string make_value_response(const std::string& id, const std::string& member,
                                const JsonValue& value) {
  std::ostringstream os;
  JsonWriter json(os);
  begin_envelope(json, id, /*ok=*/true);
  json.key(member);
  value.write(json);
  json.end_object();
  return os.str();
}

}  // namespace srra::service
