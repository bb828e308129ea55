#include "dse/cli.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "dse/prune.h"
#include "dse/report.h"
#include "ir/kernel.h"
#include "ir/parser.h"
#include "kernels/kernels.h"
#include "service/client.h"
#include "service/proto.h"
#include "support/error.h"
#include "support/str.h"
#include "support/table.h"

namespace srra::dse {

namespace {

const char kUsage[] =
    "usage: srra <command> [flags]\n"
    "\n"
    "commands:\n"
    "  list     built-in kernels and algorithms\n"
    "  run      evaluate one kernel at one budget (Table-1-style report;\n"
    "           --format=json emits the service's srra-query/v1 object,\n"
    "           an array of them when several algorithms are selected)\n"
    "  sweep    evaluate the full design space, one record per point\n"
    "  pareto   sweep, reduced to Pareto frontiers + best-per-budget\n"
    "  client   query a running srrad daemon, or emit/decode raw frames\n"
    "\n"
    "flags:\n"
    "  --kernel=LIST    built-in names, 'paper', 'all', or a kernel-DSL file\n"
    "                   (run: exactly one; sweep/pareto default: paper)\n"
    "  --algos=LIST     algorithm names, 'paper' (default) or 'all'\n"
    "  --budget=N       register budget for run (default 64)\n"
    "  --budgets=SPEC   budget axis for sweep/pareto: N | a,b,c | lo:hi[:step]\n"
    "                   (default 8:128; lo:hi doubles from lo)\n"
    "  --interchange    also enumerate legal loop-interchange orders\n"
    "  --tiles=LIST     also enumerate loop tiling: every legal Tile(level,\n"
    "                   size) per variant, sizes from LIST (e.g. 4,8)\n"
    "  --unroll=LIST    also enumerate unroll-and-jam: every legal\n"
    "                   UnrollJam(level, factor), factors from LIST\n"
    "  --transforms=SEQ explicit transform sequences in canonical encoding,\n"
    "                   e.g. 'i(1,0,2);t(2,8)' (see DESIGN.md §10); sweep and\n"
    "                   pareto accept several sequences joined with '+',\n"
    "                   run applies exactly one to its kernel\n"
    "  --prune=MODE     sweep/pareto transform-axis search: off (default) =\n"
    "                   exhaustive enumeration; on = analytic bound-guided\n"
    "                   search (DESIGN.md §13) that skips dominated\n"
    "                   candidates\n"
    "  --fetch=MODE     concurrent operand fetch: on (default) | off | both\n"
    "  --jobs=N         evaluation threads (default 1; 0 = all cores)\n"
    "  --format=FMT     text (default) | csv | json\n"
    "  --per-point      sweep/pareto: run every (algorithm, budget) point\n"
    "                   through its own allocator call instead of slicing\n"
    "                   one all-budget frontier per (variant, algorithm)\n"
    "                   (the frontier's oracle; output is byte-identical)\n"
    "\n"
    "client flags (see README \"Running the service\"):\n"
    "  --socket=PATH    connect to a srrad Unix socket\n"
    "  --tcp=HOST:PORT  connect to a srrad TCP endpoint (PORT alone means\n"
    "                   127.0.0.1)\n"
    "  --emit           write request frames to stdout instead of\n"
    "                   connecting (pipe into `srrad --stdio`)\n"
    "  --decode[=MODE]  read response frames from stdin, print payloads;\n"
    "                   MODE=query prints just each cached query object\n"
    "  --print=query    connected modes: print just each response's cached\n"
    "                   query object (the envelope stripped), so answers\n"
    "                   from different daemons diff byte-identical\n"
    "  --script=FILE    one request per line as key=value tokens, e.g.\n"
    "                   'kernel=fir algo=cpa budget=64', 'kernel=mat\n"
    "                   budgets=8:64', 'probe key=HEX16', 'health'\n"
    "  --repeat=N       send the request list N times over\n"
    "  --timeout-ms=N   connect/send/receive deadline (default 5000 connect,\n"
    "                   30000 I/O; 0 = wait forever)\n"
    "  --retries=N      reconnect-and-resend attempts after a failed\n"
    "                   roundtrip, with deterministic exponential backoff\n"
    "                   (default 0; retried queries are answered from the\n"
    "                   daemon's store, never recomputed)\n"
    "  one-shot query:  --kernel=NAME|FILE [--transforms=SEQ] [--algo=NAME]\n"
    "                   [--budget=N | --budgets=SPEC] [--fetch=on|off]\n"
    "                   [--probe] [--key=HEX16] [--timing] [--id=TAG],\n"
    "                   or --health / --shutdown\n";

struct Flags {
  std::map<std::string, std::string> values;
  std::vector<std::string> order;  // for unknown-flag reporting

  bool has(const std::string& name) const { return values.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

// Per-command flag vocabularies (unknown flags error instead of being
// silently ignored).
const std::vector<const char*> kExploreFlags = {
    "kernel", "algos", "budget", "budgets", "interchange", "tiles", "unroll",
    "transforms", "prune", "fetch", "jobs", "format", "per-point"};
const std::vector<const char*> kClientFlags = {
    "socket", "tcp", "emit", "decode", "print", "script", "repeat", "kernel",
    "transforms", "algo", "budget", "budgets", "fetch", "probe", "key",
    "timing", "id", "health", "shutdown", "timeout-ms", "retries"};

Flags parse_flags(const std::vector<std::string>& args, std::size_t first,
                  const std::vector<const char*>& known) {
  Flags flags;
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    check(starts_with(arg, "--"), [&] { return cat("unexpected argument: ", arg); });
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    check(std::find_if(known.begin(), known.end(),
                       [&](const char* k) { return name == k; }) != known.end(), [&] {
      return cat("unknown flag: --", name);
    });
    check(flags.values.emplace(name, value).second, [&] {
      return cat("duplicate flag: --", name);
    });
    flags.order.push_back(name);
  }
  return flags;
}

SpaceKernel load_kernel_file(const std::string& path) {
  std::ifstream in(path);
  check(in.good(), [&] { return cat("cannot open kernel file: ", path); });
  std::ostringstream text;
  text << in.rdbuf();
  Kernel kernel = parse_kernel(text.str());
  std::string name = kernel.name();
  return {std::move(name), std::move(kernel)};
}

// Resolves one --kernel token: built-in name, set name, or DSL file path.
void resolve_kernel(const std::string& token, std::vector<SpaceKernel>& out) {
  const std::string key = spelling_key(token);
  if (key == "paper" || key == "all") {
    for (kernels::NamedKernel& nk :
         key == "paper" ? kernels::table1_kernels() : kernels::builtin_kernels()) {
      out.push_back({std::move(nk.name), std::move(nk.kernel)});
    }
    return;
  }
  if (std::optional<kernels::NamedKernel> nk = kernels::find_builtin(token)) {
    out.push_back({std::move(nk->name), std::move(nk->kernel)});
    return;
  }
  if (std::ifstream(token).good()) {
    out.push_back(load_kernel_file(token));
    return;
  }
  fail(cat("unknown kernel '", token,
           "' (want example, fir, dec_fir, mat, imi, pat, bic, conv2d, matvec, "
           "paper, all, or a kernel-DSL file path)"));
}

std::vector<SpaceKernel> resolve_kernels(const std::string& list) {
  std::vector<SpaceKernel> out;
  for (const std::string& token : split(list, ',')) {
    check(!trim(token).empty(), [&] { return cat("empty kernel name in '", list, "'"); });
    resolve_kernel(std::string(trim(token)), out);
  }
  check(!out.empty(), "no kernels selected");
  return out;
}

std::vector<Algorithm> resolve_algorithms(const std::string& list) {
  const std::string key = spelling_key(list);
  if (key == "paper") return paper_variants();
  if (key == "all") return all_algorithms();
  std::vector<Algorithm> algorithms;
  for (const std::string& token : split(list, ',')) {
    algorithms.push_back(parse_algorithm(std::string(trim(token))));
  }
  check(!algorithms.empty(), "no algorithms selected");
  return algorithms;
}

// Parses a --transforms value: canonical transform sequences joined with
// '+' (';' already separates the transforms *inside* one sequence).
std::vector<std::vector<LoopTransform>> resolve_transform_sequences(
    const std::string& value) {
  std::vector<std::vector<LoopTransform>> sequences;
  for (const std::string& token : split(value, '+')) {
    std::vector<LoopTransform> sequence = parse_transforms(token);
    check(!sequence.empty(), [&] { return cat("empty transform sequence in '", value, "'"); });
    sequences.push_back(std::move(sequence));
  }
  return sequences;
}

std::vector<bool> resolve_fetch(const std::string& mode) {
  if (mode == "on") return {true};
  if (mode == "off") return {false};
  if (mode == "both") return {true, false};
  fail(cat("bad --fetch value: ", mode, " (want on|off|both)"));
}

int parse_int(const std::string& text, const char* what, int min_value) {
  // The length bound keeps std::stoi from throwing std::out_of_range,
  // which would escape run_cli's srra::Error handler and abort.
  check(!text.empty() && text.size() <= 7 &&
            text.find_first_not_of("0123456789") == std::string::npos, [&] {
    return cat("bad ", what, " value: ", text);
  });
  const int value = std::stoi(text);
  check(value >= min_value, [&] {
    return cat("bad ", what, " value: ", text, " (must be >= ", min_value, ")");
  });
  return value;
}

int cmd_list(std::ostream& out) {
  out << "Built-in kernels:\n";
  Table kernels_table({"Name", "Depth", "Loops", "Description"});
  for (const kernels::NamedKernel& nk : kernels::builtin_kernels()) {
    kernels_table.add_row({nk.name, std::to_string(nk.kernel.depth()),
                           cat("(", join(nk.kernel.loop_names(), ","), ")"),
                           nk.description});
  }
  kernels_table.set_align(1, Align::kRight);
  kernels_table.render(out);

  out << "\nAlgorithms:\n";
  Table algorithms_table({"Name", "Spellings"});
  algorithms_table.add_row({"feasibility", "feasibility"});
  algorithms_table.add_row({"FR-RA", "fr, FR-RA"});
  algorithms_table.add_row({"PR-RA", "pr, PR-RA"});
  algorithms_table.add_row({"CPA-RA", "cpa, CPA-RA"});
  algorithms_table.add_row({"KS-RA", "knapsack, KS-RA"});
  algorithms_table.add_row({"DP-RA", "dp, optimal, optimal-dp, DP-RA"});
  algorithms_table.add_row({"LS-RA", "ls, linear-scan, LS-RA"});
  algorithms_table.add_row({"BB-RA", "bnb, bb, optimal-bnb, BB-RA"});
  algorithms_table.render(out);
  return 0;
}

int cmd_run(const Flags& flags, std::ostream& out) {
  check(flags.has("kernel"), "run needs --kernel=NAME|FILE");
  check(!flags.has("budgets"), "run takes --budget, not --budgets");
  check(!flags.has("jobs"), "run evaluates one point set; --jobs applies to sweep/pareto");
  check(!flags.has("interchange"), "--interchange applies to sweep/pareto");
  check(!flags.has("tiles") && !flags.has("unroll"),
        "--tiles/--unroll enumerate axes and apply to sweep/pareto; "
        "run takes an explicit --transforms sequence");
  check(!flags.has("per-point"), "--per-point applies to sweep/pareto");
  check(!flags.has("prune"), "--prune applies to sweep/pareto");
  std::vector<SpaceKernel> selected = resolve_kernels(flags.get("kernel", ""));
  check(selected.size() == 1, "run takes exactly one kernel");
  std::string transforms_encoding;  // canonical, for the JSON report header
  if (flags.has("transforms")) {
    std::vector<std::vector<LoopTransform>> sequences =
        resolve_transform_sequences(flags.get("transforms", ""));
    check(sequences.size() == 1, "run applies exactly one transform sequence");
    const srra::span<const LoopTransform> sequence(sequences.front().data(),
                                                   sequences.front().size());
    transforms_encoding = to_string(sequence);
    selected.front().kernel = transform_for_pipeline(selected.front().kernel, sequence);
  }
  const std::vector<Algorithm> algorithms = resolve_algorithms(flags.get("algos", "paper"));
  const std::vector<bool> fetch = resolve_fetch(flags.get("fetch", "on"));
  check(fetch.size() == 1, "run takes --fetch=on or --fetch=off");

  PipelineOptions options;
  options.budget = parse_int(flags.get("budget", "64"), "--budget", 1);
  options.cycles.concurrent_operand_fetch = fetch.front();
  const Format format = parse_format(flags.get("format", "text"));

  if (format == Format::kText) {
    const RefModel model(selected.front().kernel.clone());
    std::vector<DesignPoint> points;
    for (const Algorithm algorithm : algorithms) {
      points.push_back(run_pipeline(model, algorithm, options));
    }
    out << selected.front().name << " at budget " << options.budget
        << " (Virtex XCV1000 model; see DESIGN.md §4-6)\n\n";
    write_design_table(out, selected.front().name, model, points);
    return 0;
  }

  if (format == Format::kJson) {
    // The service's srra-query/v1 report, through the service's own
    // evaluate/serialize code — `srra run --format=json` and a srrad
    // response's "query" member are byte-identical by construction
    // (test_service.cc pins this).
    const SpaceKernel& sk = selected.front();
    const std::uint64_t hash = structural_hash(sk.kernel);
    const RefModel model(sk.kernel.clone());
    JsonWriter json(out);
    if (algorithms.size() > 1) json.begin_array();
    for (const Algorithm algorithm : algorithms) {
      service::QueryInput input;
      input.kernel_name = sk.name;
      input.transforms = transforms_encoding;
      input.kernel_hash = hash;
      input.algorithm = algorithm;
      input.fetch = fetch.front();
      input.budget = options.budget;
      service::write_query_report(json, service::evaluate_query(model, input));
    }
    if (algorithms.size() > 1) json.end_array();
    return 0;
  }

  AxisSpec axes;
  axes.kernels = std::move(selected);
  axes.algorithms = algorithms;
  axes.budgets = {options.budget};
  axes.fetch_modes = fetch;
  ExploreOptions explore_options;
  explore_options.pipeline = options;
  write_points_report(out, explore(std::move(axes), explore_options), format);
  return 0;
}

int cmd_sweep(const Flags& flags, std::ostream& out, bool reduce_to_pareto) {
  check(!flags.has("budget"), "sweep/pareto take --budgets, not --budget");
  const std::string prune_mode = flags.get("prune", "off");
  check(prune_mode == "on" || prune_mode == "off", [&] {
    return cat("bad --prune value: ", prune_mode, " (want on|off)");
  });
  AxisSpec axes;
  axes.kernels = resolve_kernels(flags.get("kernel", "paper"));
  axes.algorithms = resolve_algorithms(flags.get("algos", "paper"));
  axes.budgets = parse_budget_spec(flags.get("budgets", "8:128"));
  axes.fetch_modes = resolve_fetch(flags.get("fetch", "on"));
  axes.transforms.interchange = flags.has("interchange");
  if (flags.has("tiles")) {
    axes.transforms.tile_sizes = parse_size_list(flags.get("tiles", ""), "--tiles");
  }
  if (flags.has("unroll")) {
    axes.transforms.unroll_factors =
        parse_size_list(flags.get("unroll", ""), "--unroll");
  }
  if (flags.has("transforms")) {
    axes.transforms.sequences =
        resolve_transform_sequences(flags.get("transforms", ""));
  }

  ExploreOptions options;
  options.jobs = flags.has("jobs") ? parse_int(flags.get("jobs", "1"), "--jobs", 0) : 1;
  options.frontier = !flags.has("per-point");
  const Format format = parse_format(flags.get("format", "text"));

  const ExploreResult result = prune_mode == "off"
                                   ? explore(std::move(axes), options)
                                   : explore_guided(std::move(axes), options);
  if (reduce_to_pareto) {
    write_pareto_report(out, result, format);
  } else {
    write_points_report(out, result, format);
  }
  return 0;
}

// ------------------------------------------------------------------- client

// Resolves a client --kernel/kernel= value: a readable file becomes its DSL
// text (the daemon never reads client-side paths), anything else passes
// through as a builtin name or inline DSL.
std::string resolve_kernel_text(const std::string& token) {
  std::ifstream in(token);
  if (!in.good()) return token;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Builds one request payload from key=value tokens (the client flags and
// --script lines share this vocabulary: kernel, transforms, algo, budget,
// budgets, fetch, probe, key, timing, id, health, shutdown).
std::string client_request(const std::map<std::string, std::string>& tokens) {
  for (const auto& [name, value] : tokens) {
    static const char* known[] = {"kernel", "transforms", "algo",   "budget",
                                  "budgets", "fetch",     "probe",  "key",
                                  "timing",  "id",        "health", "shutdown"};
    check(std::find_if(std::begin(known), std::end(known),
                       [&, n = name](const char* k) { return n == k; }) != std::end(known), [&] {
      return cat("unknown request token: ", name, (value.empty() ? "" : "="), value);
    });
  }
  const auto has = [&](const char* k) { return tokens.count(k) != 0; };
  const auto get = [&](const char* k) { return tokens.at(k); };

  JsonValue request = JsonValue::make_object();
  check(!(has("health") && has("shutdown")), "health and shutdown are separate requests");
  if (has("health") || has("shutdown")) {
    check(!has("kernel") && !has("key"), "health/shutdown requests take no query tokens");
    request.set("op", JsonValue::make_string(has("health") ? "health" : "shutdown"));
    if (has("id")) request.set("id", JsonValue::make_string(get("id")));
    return request.to_string();
  }

  if (has("id")) request.set("id", JsonValue::make_string(get("id")));
  if (has("key")) {
    check(!has("kernel"), "kernel and key are mutually exclusive");
    request.set("key", JsonValue::make_string(get("key")));
    request.set("probe", JsonValue::make_bool(true));
  } else {
    check(has("kernel"), "a query needs kernel=NAME|FILE (or key=HEX16)");
    request.set("kernel", JsonValue::make_string(resolve_kernel_text(get("kernel"))));
    if (has("transforms") && !get("transforms").empty()) {
      request.set("transforms", JsonValue::make_string(get("transforms")));
    }
    if (has("algo")) request.set("algorithm", JsonValue::make_string(get("algo")));
    check(!(has("budget") && has("budgets")), "budget and budgets are mutually exclusive");
    if (has("budgets")) {
      request.set("mode", JsonValue::make_string("frontier"));
      request.set("budgets", JsonValue::make_string(get("budgets")));
    } else if (has("budget")) {
      request.set("budget",
                  JsonValue::make_int(parse_int(get("budget"), "budget", 1)));
    }
    if (has("fetch")) {
      const std::string mode = get("fetch");
      check(mode == "on" || mode == "off", [&] {
        return cat("bad fetch value: ", mode, " (want on|off)");
      });
      if (mode == "off") request.set("fetch", JsonValue::make_bool(false));
    }
    if (has("probe")) request.set("probe", JsonValue::make_bool(true));
  }
  if (has("timing")) request.set("timing", JsonValue::make_bool(true));
  return request.to_string();
}

// Decode mode: response frames in on stdin, payloads out. MODE=query
// prints just each cached query object — the envelope (cache status,
// timing) stripped away, so two service passes over the same queries
// compare byte-identical (the CI smoke test diffs exactly this).
int client_decode(const std::string& mode, std::ostream& out) {
  check(mode.empty() || mode == "full" || mode == "query", [&] {
    return cat("bad --decode value: ", mode, " (want full|query)");
  });
  for (;;) {
    const std::optional<std::string> frame = service::read_frame(std::cin);
    if (!frame.has_value()) return 0;
    if (mode == "query") {
      const JsonValue envelope = parse_json(*frame);
      if (const JsonValue* query = envelope.find("query")) {
        out << query->to_string() << "\n";
        continue;
      }
    }
    out << *frame;  // payloads are newline-terminated documents already
  }
}

int cmd_client(const Flags& flags, std::ostream& out) {
  const int modes = static_cast<int>(flags.has("socket")) + static_cast<int>(flags.has("tcp")) +
                    static_cast<int>(flags.has("emit")) + static_cast<int>(flags.has("decode"));
  check(modes == 1, "client needs exactly one of --socket, --tcp, --emit, --decode");
  if (flags.has("decode")) return client_decode(flags.get("decode", ""), out);

  // Assemble the request list: --script lines, or one request from flags.
  std::vector<std::string> requests;
  if (flags.has("script")) {
    const std::string path = flags.get("script", "");
    std::ifstream in(path);
    check(in.good(), [&] { return cat("cannot open script file: ", path); });
    std::string line;
    while (std::getline(in, line)) {
      const std::string_view body = trim(line);
      if (body.empty() || body.front() == '#') continue;
      std::map<std::string, std::string> tokens;
      std::istringstream fields{std::string(body)};
      std::string token;
      while (fields >> token) {
        const std::size_t eq = token.find('=');
        const std::string name = token.substr(0, eq);
        const std::string value = eq == std::string::npos ? "" : token.substr(eq + 1);
        check(tokens.emplace(name, value).second, [&] {
          return cat("duplicate request token '", name, "' in: ", std::string(body));
        });
      }
      requests.push_back(client_request(tokens));
    }
  } else {
    std::map<std::string, std::string> tokens;
    for (const char* name : {"kernel", "transforms", "budget", "budgets", "fetch",
                             "probe", "key", "timing", "id", "health", "shutdown"}) {
      if (flags.has(name)) tokens.emplace(name, flags.get(name, ""));
    }
    if (flags.has("algo")) tokens.emplace("algo", flags.get("algo", ""));
    requests.push_back(client_request(tokens));
  }
  const int repeat =
      flags.has("repeat") ? parse_int(flags.get("repeat", "1"), "--repeat", 1) : 1;
  const std::size_t unique = requests.size();
  for (int r = 1; r < repeat; ++r) {
    for (std::size_t i = 0; i < unique; ++i) requests.push_back(requests[i]);
  }

  if (flags.has("emit")) {
    for (const std::string& request : requests) service::write_frame(out, request);
    return 0;
  }

  service::ClientOptions client_options;
  if (flags.has("timeout-ms")) {
    const int timeout = parse_int(flags.get("timeout-ms", ""), "--timeout-ms", 0);
    client_options.connect_timeout_ms = timeout;
    client_options.io_timeout_ms = timeout;
  }
  if (flags.has("retries")) {
    client_options.retries = parse_int(flags.get("retries", ""), "--retries", 0);
  }
  service::Client client = [&] {
    if (flags.has("socket")) {
      return service::Client::connect_unix(flags.get("socket", ""), client_options);
    }
    const std::string endpoint = flags.get("tcp", "");
    const std::size_t colon = endpoint.rfind(':');
    const std::string host = colon == std::string::npos ? "127.0.0.1" : endpoint.substr(0, colon);
    const std::string port = colon == std::string::npos ? endpoint : endpoint.substr(colon + 1);
    return service::Client::connect_tcp(host, parse_int(port, "--tcp port", 1),
                                        client_options);
  }();

  const std::string print_mode = flags.get("print", "");
  check(print_mode.empty() || print_mode == "query", [&] {
    return cat("bad --print value: ", print_mode, " (want query)");
  });
  bool all_ok = true;
  for (const std::string& response : client.roundtrip_batch(requests)) {
    const JsonValue envelope = parse_json(response);
    const JsonValue* ok = envelope.find("ok");
    if (ok == nullptr || !ok->as_bool()) all_ok = false;
    if (print_mode == "query") {
      // Envelope stripped: the per-key cached object is a pure function of
      // the cache key, so output diffs byte-identical across daemons.
      if (const JsonValue* query = envelope.find("query")) {
        out << query->to_string() << "\n";
      } else {
        out << response;
      }
      continue;
    }
    out << response;
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& command = args.front();
  if (command == "--help" || command == "-h" || command == "help") {
    out << kUsage;
    return 0;
  }
  try {
    const Flags flags =
        parse_flags(args, 1, command == "client" ? kClientFlags : kExploreFlags);
    if (command == "list") {
      check(flags.values.empty(), "list takes no flags");
      return cmd_list(out);
    }
    if (command == "run") return cmd_run(flags, out);
    if (command == "sweep") return cmd_sweep(flags, out, /*reduce_to_pareto=*/false);
    if (command == "pareto") return cmd_sweep(flags, out, /*reduce_to_pareto=*/true);
    if (command == "client") return cmd_client(flags, out);
    err << "error: unknown command '" << command << "'\n\n" << kUsage;
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace srra::dse
