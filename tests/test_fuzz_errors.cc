// Randomized error-path tests for every parser the service and the CLI feed
// untrusted bytes: parse_json, parse_request, read_frame / extract_frame,
// parse_transforms and parse_budget_spec. Each corpus document (valid
// requests, payloads, frames and specs) is mutated by one byte flip,
// truncation or insertion per iteration, then parsed:
//  * an accepted JSON document must round-trip through to_string and
//    parse_json;
//  * a rejection must be an srra::Error (never another exception type), and
//    a JSON rejection must name a byte offset inside the input;
//  * at the default seed and iteration count, every outcome — each
//    rejection's message with its "file:line (function): " prefixes
//    stripped, or "ok" — must equal tests/golden/fuzz_error_messages.txt,
//    which pins the messages and byte offsets users see.
//
// Deterministic by default, like test_fuzz: SRRA_FUZZ_SEED moves the base
// seed and SRRA_FUZZ_ITERS the iteration count (the golden comparison only
// applies to the defaults). On a golden mismatch the full transcript is
// written to fuzz_error_messages.actual.txt in the working directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "dse/space.h"
#include "ir/transform.h"
#include "service/proto.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"

namespace srra {
namespace {

using service::extract_frame;
using service::parse_request;
using service::read_frame;

constexpr std::uint64_t kDefaultSeed = 0;
constexpr int kDefaultIters = 24;

// ------------------------------------------------------------------ corpora

const std::vector<std::string>& json_corpus() {
  static const std::vector<std::string> docs = {
      // A budget-mode query payload, as the store keeps it.
      "{\n  \"schema\": \"srra-query/v1\",\n  \"kernel\": \"FIR\",\n"
      "  \"transforms\": \"\",\n  \"structural_hash\": \"3b0c1c36a093e656\",\n"
      "  \"algorithm\": \"CPA-RA\",\n  \"fetch\": \"concurrent\",\n"
      "  \"mode\": \"budget\",\n  \"budget\": 32,\n  \"feasible\": true,\n"
      "  \"point\": {\n    \"registers\": 32,\n    \"distribution\": \"1/16/15\",\n"
      "    \"mem_cycles\": 18431,\n    \"mem_cycles_per_outer\": 17.9990234375,\n"
      "    \"ram_accesses\": 34815,\n    \"exec_cycles\": 149503,\n"
      "    \"clock_ns\": 28.3857690144,\n    \"time_us\": 4243.75762496,\n"
      "    \"slices\": 314,\n    \"occupancy\": 0.0255533854167,\n"
      "    \"block_rams\": 12\n  }\n}\n",
      // A frontier payload.
      "{\n  \"mode\": \"frontier\",\n  \"points\": [\n    {\n      \"budget\": 8,\n"
      "      \"registers\": 8\n    },\n    {\n      \"budget\": 16,\n"
      "      \"registers\": 15,\n      \"time_us\": 1.5e-3\n    }\n  ]\n}\n",
      // An infeasible payload whose error text needs every escape.
      "{\"feasible\": false, \"error\": \"q\\\"uote \\\\ back\\n\\t\\u0001 caf\\u00e9 "
      "\\ud83d\\ude00 \\/\"}",
      // Every value kind, compact.
      "[1,-2.5e3,0.25,-0,true,false,null,{\"a\":[]},{},\"\",1E+2,123456789012]",
      // A pull page carrying a payload as a string.
      "{\"schema\": \"srra-service/v1\", \"ok\": true, \"pull\": {\"total\": 1, "
      "\"entries\": [{\"key\": \"0123456789abcdef\", \"cost\": 1, "
      "\"payload\": \"{\\n  \\\"x\\\": 1\\n}\\n\"}]}}",
      // Nesting.
      "[[[[[{\"deep\": [[[\"x\"]]]}]]]]]",
  };
  return docs;
}

const std::vector<std::string>& request_corpus() {
  static const std::vector<std::string> docs = {
      "{\"op\": \"query\", \"id\": \"a1\", \"kernel\": \"fir\", \"algorithm\": \"cpa\", "
      "\"budget\": 32}",
      "{\"kernel\": \"mat\", \"mode\": \"frontier\", \"budgets\": \"16:64\", "
      "\"fetch\": false}",
      "{\"kernel\": \"fir\", \"transforms\": \"t(1,8)\", \"algorithm\": \"cpa\", "
      "\"budget\": 64, \"timing\": true}",
      "{\"op\": \"health\", \"id\": \"h\"}",
      "{\"op\": \"pull\", \"limit\": 16, \"offset\": 0}",
      "{\"key\": \"0123456789abcdef\", \"probe\": true, \"id\": \"p\"}",
  };
  return docs;
}

std::string framed(const std::string& payload) {
  return std::to_string(payload.size()) + "\n" + payload;
}

const std::vector<std::string>& frame_corpus() {
  static const std::vector<std::string> docs = {
      framed(request_corpus()[3]),
      framed(request_corpus()[0]),
      framed(""),
      framed("{}") + framed("[]"),
  };
  return docs;
}

const std::vector<std::string>& transforms_corpus() {
  static const std::vector<std::string> docs = {
      "i(1,0)", "i(1,0);t(1,8)", "uj(0,2)", "t(0,4);uj(1,2)", "i(2,0,1);t(0,8);uj(1,4)",
  };
  return docs;
}

const std::vector<std::string>& budgets_corpus() {
  static const std::vector<std::string> docs = {
      "8:128", "8:64:8", "16,32,64", "4:40:4", "64",
  };
  return docs;
}

/// Hand-picked rejections per suite, parsed unmutated: the branches random
/// mutation rarely reaches (surrogates, depth, framing limits, validation).
const std::vector<std::string>& json_edges() {
  static const std::vector<std::string> docs = {
      "\"\\ud83dx\"", "\"\\ud83d\\x\"", "\"\\ud83d\\u0041\"", "\"\\ude00\"",
      "\"\\u12g4\"", "\"\\u12", "\"\\q\"", "01", "1.", "1e", "-", "[1,]",
      "{\"a\" 1}", "{\"a\": 1,}", "\"abc", "tru", "{} x", "", " ",
      std::string(65, '[') + std::string(65, ']'), std::string(64, '[') + std::string(64, ']'),
      "99999999999999999999", "1e999", "\"a\x01\"",
  };
  return docs;
}

const std::vector<std::string>& request_edges() {
  static const std::vector<std::string> docs = {
      "{\"op\": \"nope\"}", "{\"kernel\": \"fir\", \"budget\": 0}",
      "{\"kernel\": \"fir\", \"budgets\": \"8:16\"}",
      "{\"kernel\": \"fir\", \"mode\": \"frontier\", \"budget\": 8}",
      "{\"kernel\": \"fir\", \"mode\": \"sideways\"}",
      "{\"key\": \"xyz\", \"probe\": true}", "{\"key\": \"0123456789abcdef\"}",
      "{\"kernel\": \"fir\", \"key\": \"0123456789abcdef\", \"probe\": true}",
      "{\"key\": \"0123456789abcdef\", \"probe\": true, \"budget\": 8}",
      "{\"op\": \"pull\", \"kernel\": \"fir\"}", "{\"op\": \"pull\", \"limit\": 0}",
      "{\"op\": \"pull\", \"offset\": -1}", "{\"op\": \"health\", \"budget\": 3}",
      "{\"kernel\": \"fir\", \"limit\": 3}", "{\"kernel\": 5}", "{\"kernel\": \"\"}",
      "{\"kernel\": \"fir\", \"algorithm\": \"\"}", "{\"kernel\": \"fir\", \"budgets\": \"\"}",
      "{\"kernel\": \"fir\", \"fetch\": 1}", "{\"budget\": 8}", "{\"bogus\": 1}", "[]",
      "not json",
  };
  return docs;
}

const std::vector<std::string>& frame_edges() {
  static const std::vector<std::string> docs = {
      "x\n", "1234567890\n", "\n", "99999999\n", "5\nab", "3", "16777217\n",
  };
  return docs;
}

const std::vector<std::string>& transforms_edges() {
  static const std::vector<std::string> docs = {
      ";", "i(1)", "t(1,8,2)", "uj(1)", "x(1,2)", "t(a,8)", "t1,8)", "t(99999999,1)",
      "i(1,0);", "t(,8)",
  };
  return docs;
}

const std::vector<std::string>& budgets_edges() {
  static const std::vector<std::string> docs = {
      "8:4", "0", "8:16:0", "1:2:3:4", "", "9999999", "1000001", "a", "8,,16", ":8",
  };
  return docs;
}

// ----------------------------------------------------------------- mutation

/// Bytes the parsers branch on, plus control, DEL and non-ASCII bytes.
constexpr char kInteresting[] = "{}[]\":,\\ 0123456789-+.eEtfnu/ab()i;:\n\t\x01\x7f\xc3\xff";

char random_byte(Rng& rng) {
  if (rng.uniform01() < 0.5) {
    return kInteresting[rng.uniform(0, sizeof kInteresting - 2)];
  }
  return static_cast<char>(rng.uniform(0, 255));
}

/// One byte flip, truncation or insertion; `what` names it for the golden.
std::string mutate(const std::string& doc, Rng& rng, std::string* what) {
  std::string out = doc;
  const auto size = static_cast<std::int64_t>(doc.size());
  switch (rng.uniform(0, 2)) {
    case 0: {
      const std::int64_t at = rng.uniform(0, size - 1);
      out[static_cast<std::size_t>(at)] = random_byte(rng);
      *what = "flip@" + std::to_string(at);
      break;
    }
    case 1: {
      const std::int64_t keep = rng.uniform(0, size - 1);
      out.resize(static_cast<std::size_t>(keep));
      *what = "cut@" + std::to_string(keep);
      break;
    }
    default: {
      const std::int64_t at = rng.uniform(0, size);
      out.insert(out.begin() + at, random_byte(rng));
      *what = "ins@" + std::to_string(at);
      break;
    }
  }
  return out;
}

// ------------------------------------------------------------------ outcome

/// Removes every "<path>.cc:<line> (<function>): " location prefix (nested
/// errors carry one per layer), so the golden holds only what the message
/// says, not where the build put its sources.
std::string strip_locations(const std::string& message) {
  static const std::regex location(R"(\S+\.(cc|h):\d+ \(.*?\): )");
  return std::regex_replace(message, location, "");
}

/// Printable ASCII verbatim, every other byte as \xHH: one line per outcome.
std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", byte);
      out += buf;
    }
  }
  return out;
}

/// Runs `parse` on `input`; returns "ok" or the stripped rejection message.
/// Any exception other than srra::Error fails the test.
template <typename Parse>
std::string outcome(const std::string& input, Parse&& parse) {
  try {
    parse(input);
    return "ok";
  } catch (const Error& e) {
    const std::string message = strip_locations(e.what());
    EXPECT_FALSE(message.empty());
    return message;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-srra exception: " << e.what() << "\ninput: " << printable(input);
    return std::string("non-srra exception: ") + e.what();
  }
}

/// The JSON byte offset a rejection names ("JSON parse error at byte N").
std::int64_t json_error_offset(const std::string& message) {
  const std::string tag = "JSON parse error at byte ";
  const std::size_t at = message.find(tag);
  if (at == std::string::npos) return -1;
  return std::stoll(message.substr(at + tag.size()));
}

// ------------------------------------------------------------------- suites

struct Suite {
  const char* name;
  const std::vector<std::string>& (*corpus)();
  const std::vector<std::string>& (*edges)();
  std::string (*run)(const std::string& input);
};

void check_json(const std::string& input, const std::string& result) {
  if (result == "ok") {
    const std::string once = parse_json(input).to_string();
    EXPECT_EQ(parse_json(once).to_string(), once) << "input: " << printable(input);
    return;
  }
  const std::int64_t offset = json_error_offset(result);
  EXPECT_GE(offset, 0) << result;
  EXPECT_LE(offset, static_cast<std::int64_t>(input.size())) << result;
}

std::string run_json(const std::string& input) {
  const std::string result = outcome(input, [](const std::string& text) { parse_json(text); });
  check_json(input, result);
  return result;
}

std::string run_request(const std::string& input) {
  return outcome(input, [](const std::string& text) { parse_request(text); });
}

std::string run_frame(const std::string& input) {
  // read_frame over the whole stream, then extract_frame over the same
  // bytes: the incremental cutter must agree frame for frame.
  std::vector<std::string> streamed;
  std::string result = outcome(input, [&](const std::string& text) {
    std::istringstream is(text);
    while (std::optional<std::string> frame = read_frame(is)) {
      streamed.push_back(std::move(*frame));
    }
  });
  std::string buffer = input;
  std::string payload;
  std::vector<std::string> cut;
  int code = 0;
  while ((code = extract_frame(buffer, payload)) == 1) cut.push_back(payload);
  const std::size_t agree = std::min(streamed.size(), cut.size());
  for (std::size_t i = 0; i < agree; ++i) {
    EXPECT_EQ(streamed[i], cut[i]) << "frame " << i << " of " << printable(input);
  }
  if (result == "ok") {
    EXPECT_EQ(code, 0) << printable(input);
    EXPECT_TRUE(buffer.empty()) << printable(input);
    EXPECT_EQ(streamed.size(), cut.size()) << printable(input);
  }
  return result + " | extract " + std::to_string(code) + " after " +
         std::to_string(cut.size());
}

std::string run_transforms(const std::string& input) {
  return outcome(input, [](const std::string& text) { parse_transforms(text); });
}

std::string run_budgets(const std::string& input) {
  return outcome(input, [](const std::string& text) { dse::parse_budget_spec(text); });
}

const std::vector<Suite>& suites() {
  static const std::vector<Suite> all = {
      {"json", json_corpus, json_edges, run_json},
      {"request", request_corpus, request_edges, run_request},
      {"frame", frame_corpus, frame_edges, run_frame},
      {"transforms", transforms_corpus, transforms_edges, run_transforms},
      {"budgets", budgets_corpus, budgets_edges, run_budgets},
  };
  return all;
}

/// Every outcome of one suite, one line each, at the current seed/iters.
std::vector<std::string> transcript(const Suite& suite) {
  std::vector<std::string> lines;
  const std::vector<std::string>& corpus = suite.corpus();
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    // The unmutated document must be accepted.
    EXPECT_EQ(suite.run(corpus[d]).substr(0, 2), "ok") << suite.name << " doc " << d;
  }
  for (int iter = 0; iter < fuzz_iters(); ++iter) {
    const std::uint64_t seed = fuzz_seed() + static_cast<std::uint64_t>(iter);
    for (std::size_t d = 0; d < corpus.size(); ++d) {
      Rng rng(seed * 1000003 + d * 7919 + 17);
      std::string what;
      const std::string input = mutate(corpus[d], rng, &what);
      SCOPED_TRACE(std::string("fuzz seed ") + std::to_string(seed) +
                   " — replay with SRRA_FUZZ_SEED=" + std::to_string(seed) +
                   " SRRA_FUZZ_ITERS=1 ./test_fuzz_errors");
      lines.push_back(std::string(suite.name) + " " + std::to_string(d) + " " +
                      std::to_string(iter) + " " + what + ": " +
                      printable(suite.run(input)));
    }
  }
  const std::vector<std::string>& edges = suite.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    lines.push_back(std::string(suite.name) + " edge " + std::to_string(e) + ": " +
                    printable(suite.run(edges[e])));
  }
  return lines;
}

std::vector<std::string> golden_lines(const std::string& prefix) {
  std::ifstream in(std::string(SRRA_GOLDEN_DIR) + "/fuzz_error_messages.txt");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) lines.push_back(line);
  }
  return lines;
}

class ErrorFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ErrorFuzz, OutcomesMatchGolden) {
  const Suite& suite = suites()[GetParam()];
  const std::vector<std::string> lines = transcript(suite);
  if (fuzz_seed() != kDefaultSeed || fuzz_iters() != kDefaultIters) return;
  const std::vector<std::string> golden = golden_lines(std::string(suite.name) + " ");
  if (lines == golden) return;
  std::ofstream out(std::string("fuzz_error_messages.actual.") + suite.name + ".txt");
  for (const std::string& line : lines) out << line << '\n';
  std::size_t first = 0;
  while (first < lines.size() && first < golden.size() && lines[first] == golden[first]) {
    ++first;
  }
  FAIL() << suite.name << ": transcript differs from the golden at line " << first
         << "\n  golden: " << (first < golden.size() ? golden[first] : "<end>")
         << "\n  actual: " << (first < lines.size() ? lines[first] : "<end>");
}

INSTANTIATE_TEST_SUITE_P(Parsers, ErrorFuzz, ::testing::Range<std::size_t>(0, 5),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::string(suites()[info.param].name);
                         });

TEST(ErrorFuzzHelpers, StripLocationsRemovesEveryPrefix) {
  EXPECT_EQ(strip_locations("/a/b/proto.cc:99 (parse_request): request is not valid JSON: "
                            "/a/b/json.cc:300 (peek): JSON parse error at byte 0: x"),
            "request is not valid JSON: JSON parse error at byte 0: x");
  EXPECT_EQ(strip_locations("src/x.cc:7 (operator()): m"), "m");
  EXPECT_EQ(strip_locations("src/ir/loop.h:12 (trip_count): m"), "m");
  EXPECT_EQ(strip_locations("no prefix: a.cc:b"), "no prefix: a.cc:b");
}

}  // namespace
}  // namespace srra
