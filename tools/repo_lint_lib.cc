#include "tools/repo_lint_lib.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace cloudviews {
namespace lint {

namespace {

namespace fs = std::filesystem;

bool PathContains(const std::string& rel_path, const char* needle) {
  return rel_path.find(needle) != std::string::npos;
}

/// True when code[i] is an identifier directly preceded by `std` `::`.
bool IsStdQualified(const std::vector<Token>& code, size_t i) {
  return i >= 2 && code[i - 1].IsPunct("::") && code[i - 2].IsIdent("std");
}

/// A NOLINT *marker* opens a comment ("// NOLINT..." or "/* NOLINT...");
/// prose that merely mentions NOLINT mid-sentence is not a marker. A
/// reasoned marker looks like "NOLINT(<category>): <why>" or at minimum
/// "NOLINT(<non-empty>)". Returns true when a marker exists; sets
/// `reasoned` and `nextline` accordingly.
bool FindNolint(const std::string& comment_text, bool* reasoned,
                bool* nextline) {
  size_t pos = 0;
  for (;;) {
    pos = comment_text.find("NOLINT", pos);
    if (pos == std::string::npos) return false;
    size_t before = pos;
    while (before > 0 && (comment_text[before - 1] == ' ' ||
                          comment_text[before - 1] == '\t')) {
      --before;
    }
    if (before >= 2 && comment_text[before - 2] == '/' &&
        (comment_text[before - 1] == '/' ||
         comment_text[before - 1] == '*')) {
      break;  // comment-opening marker
    }
    pos += 6;
  }
  size_t after = pos + 6;  // strlen("NOLINT")
  *nextline = comment_text.compare(after, 8, "NEXTLINE") == 0;
  if (*nextline) after += 8;
  *reasoned = false;
  if (after < comment_text.size() && comment_text[after] == '(') {
    size_t close = comment_text.find(')', after);
    if (close != std::string::npos && close > after + 1) *reasoned = true;
  }
  return true;
}

std::string ExpectedHeaderGuard(const std::string& rel_path) {
  std::string p = rel_path;
  // src/ is the include root, so it does not appear in guards; tests/ and
  // tools/ do (they are their own include namespaces).
  if (p.rfind("src/", 0) == 0) p = p.substr(4);
  std::string guard = "CLOUDVIEWS_";
  for (char c : p) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

/// True when a comment containing `needle` starts or ends within
/// [line - reach, line] — the justification window rules give to
/// declarations.
bool JustifiedNearby(const FileCtx& ctx, const char* needle, int line,
                     int reach) {
  for (const Token& c : ctx.comments) {
    if (c.text.find(needle) == std::string::npos) continue;
    int end =
        c.line + static_cast<int>(std::count(c.text.begin(), c.text.end(),
                                             '\n'));
    if (end >= line - reach && c.line <= line) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rules (token-level)
// ---------------------------------------------------------------------------

void RuleBannedRandom(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "common/random")) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string& s = code[i].text;
    std::string which;
    if (s == "srand" || s == "random_device") {
      which = s;
    } else if (s == "rand" && IsStdQualified(code, i)) {
      which = "std::rand";
    } else if (s == "time" && i + 3 < code.size() &&
               code[i + 1].IsPunct("(") &&
               (code[i + 2].IsIdent("nullptr") ||
                code[i + 2].IsIdent("NULL")) &&
               code[i + 3].IsPunct(")")) {
      which = "time(" + code[i + 2].text + ")";
    }
    if (which.empty()) continue;
    out->push_back({ctx.display_path, code[i].line, "banned-random",
                    "'" + which +
                        "' outside common/random; use cloudviews::Rng so "
                        "runs stay reproducible"});
  }
}

void RuleBannedClock(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "common/clock") ||
      PathContains(ctx.rel_path, "src/obs/")) {
    return;
  }
  for (const Token& t : ctx.code) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "steady_clock" && t.text != "system_clock" &&
        t.text != "high_resolution_clock") {
      continue;
    }
    out->push_back({ctx.display_path, t.line, "banned-clock",
                    "'" + t.text +
                        "' outside common/clock.h and src/obs; read the "
                        "MonotonicClock* the component was constructed "
                        "with so tests can inject a fake one"});
  }
}

void RuleRealClock(const FileCtx& ctx, std::vector<Violation>* out) {
  // MonotonicNowSeconds() is MonotonicClock::Real(): a component timing
  // itself with it escapes the fake clock a test hands the instance.
  if (ctx.rel_path.rfind("src/", 0) != 0 ||
      PathContains(ctx.rel_path, "common/clock.h")) {
    return;
  }
  const auto& code = ctx.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!code[i].IsIdent("MonotonicNowSeconds") ||
        !code[i + 1].IsPunct("(")) {
      continue;
    }
    out->push_back({ctx.display_path, code[i].line, "real-clock",
                    "'MonotonicNowSeconds(' in src/ reads the real clock; "
                    "read the component's injected MonotonicClock* (the "
                    "instance wall clock) so one fake clock governs every "
                    "timer"});
  }
}

void RuleBannedSleep(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "fault/backoff")) return;
  for (const Token& t : ctx.code) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "sleep_for" && t.text != "sleep_until" &&
        t.text != "usleep" && t.text != "nanosleep") {
      continue;
    }
    out->push_back({ctx.display_path, t.line, "banned-sleep",
                    "'" + t.text +
                        "' outside fault/backoff; hand-rolled sleeps in "
                        "retry loops are untestable — use "
                        "fault::RetryWithBackoff (with an injectable "
                        "Sleeper)"});
  }
}

void RuleBannedSync(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "common/mutex.h")) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string& s = code[i].text;
    if (s != "mutex" && s != "condition_variable" && s != "lock_guard" &&
        s != "unique_lock" && s != "scoped_lock" && s != "shared_mutex" &&
        s != "shared_lock" && s != "recursive_mutex") {
      continue;
    }
    if (!IsStdQualified(code, i)) continue;
    out->push_back({ctx.display_path, code[i].line, "banned-sync",
                    "'std::" + s +
                        "' outside common/mutex.h; use the annotated "
                        "Mutex/MutexLock/CondVar so clang -Wthread-safety "
                        "can check the locking"});
  }
}

void RuleRawSocket(const FileCtx& ctx, std::vector<Violation>* out) {
  // net/socket.{h,cc} is the one sanctioned call site of the BSD socket
  // API; everything else (the server and client included) goes through the
  // Socket RAII wrapper so fd lifetimes, EINTR retries, and the net fault
  // points stay in one place.
  if (PathContains(ctx.rel_path, "net/socket.")) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string& s = code[i].text;
    if (s != "socket" && s != "bind" && s != "listen" && s != "accept" &&
        s != "connect" && s != "send" && s != "recv" && s != "sendto" &&
        s != "recvfrom" && s != "setsockopt" && s != "getsockopt" &&
        s != "getsockname" && s != "getpeername" && s != "shutdown") {
      continue;
    }
    if (!code[i + 1].IsPunct("(")) continue;
    // Member calls (sock.connect(...)) are not the C API.
    if (i >= 1 &&
        (code[i - 1].IsPunct(".") || code[i - 1].IsPunct("->"))) {
      continue;
    }
    // Namespace-qualified names (std::bind) are not the C API either; a
    // global-scope `::connect(` is exactly what the rule is after.
    if (i >= 2 && code[i - 1].IsPunct("::") &&
        code[i - 2].kind == TokenKind::kIdentifier) {
      continue;
    }
    out->push_back({ctx.display_path, code[i].line, "raw-socket",
                    "'" + s +
                        "(' outside net/socket.cc; raw BSD socket calls "
                        "bypass the Socket RAII wrapper (fd lifetime, "
                        "EINTR handling, net fault points)"});
  }
}

void RuleThrowingConversion(const FileCtx& ctx, std::vector<Violation>* out) {
  // Tests may convert their own fixtures; everything else can see input
  // from a client, where a throw would take the whole server down.
  if (ctx.rel_path.rfind("tests/", 0) == 0) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string& s = code[i].text;
    if (s != "stoi" && s != "stol" && s != "stoll" && s != "stoul" &&
        s != "stoull" && s != "stof" && s != "stod" && s != "stold") {
      continue;
    }
    if (!IsStdQualified(code, i)) continue;
    out->push_back({ctx.display_path, code[i].line, "throwing-conversion",
                    "'std::" + s +
                        "' throws on malformed or out-of-range input; use "
                        "std::from_chars and return a Status"});
  }
}

/// Index one past the instrument expression starting at `i`: identifiers
/// joined by `.`, `->` or `::` (obs_.hits, state->rows, counter_).
size_t SkipMemberExpr(const std::vector<Token>& code, size_t i) {
  while (i < code.size() && code[i].kind == TokenKind::kIdentifier) {
    ++i;
    if (i + 1 < code.size() &&
        (code[i].IsPunct(".") || code[i].IsPunct("->") ||
         code[i].IsPunct("::")) &&
        code[i + 1].kind == TokenKind::kIdentifier) {
      ++i;
    } else {
      break;
    }
  }
  return i;
}

void RuleNullableInstrument(const FileCtx& ctx, std::vector<Violation>* out) {
  // Every component registers its instruments at construction, so none is
  // ever null.
  if (ctx.rel_path.rfind("src/", 0) != 0) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!code[i].IsIdent("if") || !code[i + 1].IsPunct("(")) continue;
    const size_t x_begin = i + 2;
    const size_t x_end = SkipMemberExpr(code, x_begin);
    const size_t x_len = x_end - x_begin;
    if (x_len == 0 || x_end + 2 >= code.size() ||
        !code[x_end].IsPunct("!=") || !code[x_end + 1].IsIdent("nullptr") ||
        !code[x_end + 2].IsPunct(")")) {
      continue;
    }
    size_t j = x_end + 3;
    if (j < code.size() && code[j].IsPunct("{")) ++j;
    if (j + x_len + 2 >= code.size()) continue;
    bool same = true;
    for (size_t k = 0; k < x_len && same; ++k) {
      same = code[j + k].text == code[x_begin + k].text;
    }
    j += x_len;
    if (!same || !code[j].IsPunct("->") || !code[j + 2].IsPunct("(")) {
      continue;
    }
    const std::string& call = code[j + 1].text;
    if (call != "Increment" && call != "Set" && call != "Add" &&
        call != "Observe") {
      continue;
    }
    std::string x;
    for (size_t k = x_begin; k < x_end; ++k) x += code[k].text;
    out->push_back({ctx.display_path, code[i].line, "nullable-instrument",
                    "null check guarding '" + x + "->" + call +
                        "'; instruments are registered at construction "
                        "and never null — drop the check"});
  }
}

void RuleBoxedCell(const FileCtx& ctx, std::vector<Violation>* out) {
  // The executor and the front door (which fingerprints every output on
  // the wire worker) hash, compare and copy rows from the typed column
  // vectors; a Value per cell (a heap copy per string) belongs to
  // literals, aggregate states and the EvaluateRow reference.
  if (ctx.rel_path.rfind("src/exec/", 0) != 0 &&
      ctx.rel_path.rfind("src/net/", 0) != 0) {
    return;
  }
  const auto& code = ctx.code;
  for (size_t i = 1; i + 1 < code.size(); ++i) {
    if (!code[i + 1].IsPunct("(")) continue;
    std::string what;
    if (code[i].IsIdent("GetValue") &&
        (code[i - 1].IsPunct(".") || code[i - 1].IsPunct("->"))) {
      what = "'GetValue(' boxes a cell into a Value";
    } else if (code[i].IsIdent("AppendRowFrom")) {
      what = "'AppendRowFrom(' copies one row at a time";
    } else {
      continue;
    }
    out->push_back({ctx.display_path, code[i].line, "boxed-cell",
                    what +
                        " in src/exec/ or src/net/; read the typed column "
                        "vectors and gather with AppendSelected/"
                        "AppendGathered (or NOLINT(boxed-cell): <why>)"});
  }
}

void RuleNakedNew(const FileCtx& ctx, std::vector<Violation>* out) {
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!code[i].IsIdent("new")) continue;
    if (i > 0 && code[i - 1].IsIdent("operator")) continue;
    out->push_back({ctx.display_path, code[i].line, "naked-new",
                    "naked 'new'; use std::make_unique/std::make_shared "
                    "(or NOLINT(naked-new): <why> for an intentional "
                    "leak)"});
  }
}

void RuleMutexGuarded(const FileCtx& ctx, std::vector<Violation>* out) {
  if (!ctx.is_header || PathContains(ctx.rel_path, "common/mutex.h")) {
    return;
  }
  const auto& code = ctx.code;
  int first_mutex_line = 0;
  bool saw_guarded_by = false;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].IsIdent("GUARDED_BY") || code[i].IsIdent("PT_GUARDED_BY")) {
      saw_guarded_by = true;
    }
    // A member declaration "Mutex mu_;" (possibly "mutable Mutex mu_;").
    if (first_mutex_line == 0 && code[i].IsIdent("Mutex") &&
        i + 2 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        code[i + 2].IsPunct(";")) {
      first_mutex_line = code[i].line;
    }
  }
  if (first_mutex_line != 0 && !saw_guarded_by) {
    out->push_back({ctx.display_path, first_mutex_line, "mutex-guarded",
                    "header declares a Mutex member but annotates nothing "
                    "with GUARDED_BY; annotate the state the mutex "
                    "protects"});
  }
}

void RuleMetadataMapStripe(const FileCtx& ctx,
                           std::vector<Violation>* out) {
  if (!ctx.is_header || !PathContains(ctx.rel_path, "src/metadata/")) {
    return;
  }
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    if (code[i].text != "map" && code[i].text != "unordered_map") continue;
    if (!IsStdQualified(code, i)) continue;
    if (i + 1 >= code.size() || !code[i + 1].IsPunct("<")) continue;
    // The declaration runs to the next ';'; it is guarded when GUARDED_BY
    // appears in it.
    bool guarded = false;
    for (size_t j = i + 1; j < code.size(); ++j) {
      if (code[j].IsPunct(";")) break;
      if (code[j].IsIdent("GUARDED_BY")) guarded = true;
    }
    if (!guarded) continue;
    int line = code[i - 2].line;  // the `std` token: start of the type
    if (JustifiedNearby(ctx, "shard-stripe", line, 4)) continue;
    out->push_back(
        {ctx.display_path, line, "metadata-map-stripe",
         "mutex-guarded map member in a src/metadata/ header; the "
         "metadata hot path must stay sharded — stripe the map per "
         "signature shard, or add a 'shard-stripe: <why>' comment "
         "justifying the single lock"});
  }
}

void RuleCompensationComment(const FileCtx& ctx,
                             std::vector<Violation>* out) {
  if (!PathContains(ctx.rel_path, "optimizer/view_matcher.") &&
      !PathContains(ctx.rel_path, "optimizer/view_rewriter.")) {
    return;
  }
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!code[i].IsIdent("make_shared")) continue;
    if (i + 1 >= code.size() || !code[i + 1].IsPunct("<")) continue;
    // Collect the (possibly qualified) template type name.
    std::string type;
    for (size_t j = i + 2; j < code.size(); ++j) {
      if (code[j].kind == TokenKind::kIdentifier) {
        type = code[j].text;
        continue;
      }
      if (code[j].IsPunct("::")) continue;
      break;
    }
    if (type.size() < 4 ||
        type.compare(type.size() - 4, 4, "Node") != 0) {
      continue;
    }
    int line = code[i].line;
    // Every plan-node construction in the matcher / rewriter is a
    // compensation (or exact-replacement) operator whose byte-identity
    // argument must be written down nearby.
    if (JustifiedNearby(ctx, "compensation:", line, 4)) continue;
    out->push_back(
        {ctx.display_path, line, "compensation-comment",
         "plan-node construction ('" + type +
             "') in the view-matching compensation path without a "
             "nearby '// compensation: <why byte-identical>' "
             "justification comment"});
  }
}

void RuleAssertSideEffect(const FileCtx& ctx,
                          std::vector<Violation>* out) {
  const auto& code = ctx.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!code[i].IsIdent("assert") || !code[i + 1].IsPunct("(")) continue;
    int depth = 0;
    bool mutates = false;
    for (size_t j = i + 1; j < code.size(); ++j) {
      if (code[j].kind != TokenKind::kPunct) continue;
      const std::string& p = code[j].text;
      if (p == "(") ++depth;
      if (p == ")") {
        --depth;
        if (depth == 0) break;
      }
      if (p == "++" || p == "--" || p == "=" || p == "+=" || p == "-=" ||
          p == "*=" || p == "/=" || p == "%=" || p == "^=" || p == "&=" ||
          p == "|=" || p == "<<=" || p == ">>=") {
        mutates = true;
      }
    }
    if (mutates) {
      out->push_back({ctx.display_path, code[i].line, "assert-side-effect",
                      "assert() argument has side effects; it vanishes "
                      "under NDEBUG"});
    }
  }
}

void RuleHeaderGuard(const FileCtx& ctx, std::vector<Violation>* out) {
  if (!ctx.is_header) return;
  std::string guard = ExpectedHeaderGuard(ctx.rel_path);
  if (ctx.content->find("#ifndef " + guard) == std::string::npos ||
      ctx.content->find("#define " + guard) == std::string::npos) {
    out->push_back({ctx.display_path, 1, "header-guard",
                    "expected include guard '" + guard + "'"});
  }
}

void RuleNolintReason(const FileCtx& ctx, std::vector<Violation>* out) {
  for (const Token& c : ctx.comments) {
    bool reasoned = false;
    bool nextline = false;
    if (FindNolint(c.text, &reasoned, &nextline) && !reasoned) {
      out->push_back({ctx.display_path, c.line, "nolint-reason",
                      "NOLINT without a category and reason; write "
                      "NOLINT(<rule>): <why>"});
    }
  }
}

}  // namespace

const std::vector<LintRule>& AllRules() {
  static const std::vector<LintRule> kRules = {
      {"banned-random",
       "std::rand/srand/random_device/time(nullptr) outside common/random "
       "— use cloudviews::Rng",
       "bad_random.cc", RuleBannedRandom},
      {"banned-clock",
       "ad-hoc std::chrono clocks outside common/clock.h and src/obs — "
       "use MonotonicClock",
       "bad_clock.cc", RuleBannedClock},
      {"real-clock",
       "MonotonicNowSeconds( in src/ outside common/clock.h — read the "
       "component's injected MonotonicClock",
       "bad_real_clock.cc", RuleRealClock},
      {"banned-sleep",
       "sleep_for/sleep_until/usleep/nanosleep outside fault/backoff — "
       "use fault::RetryWithBackoff",
       "bad_sleep.cc", RuleBannedSleep},
      {"banned-sync",
       "raw std sync primitives outside common/mutex.h — use the "
       "annotated Mutex/MutexLock/CondVar",
       "bad_sync.cc", RuleBannedSync},
      {"raw-socket",
       "raw BSD socket calls outside net/socket.cc — use the Socket RAII "
       "wrapper",
       "bad_socket.cc", RuleRawSocket},
      {"throwing-conversion",
       "std::stoi/stol/stoll/stoul/stoull/stof/stod/stold outside tests/ "
       "— use std::from_chars and return a Status",
       "bad_conversion.cc", RuleThrowingConversion},
      {"nullable-instrument",
       "a null check guarding a counter, gauge or histogram update in "
       "src/ — instruments are registered at construction and never null",
       "bad_nullable_instrument.cc", RuleNullableInstrument},
      {"boxed-cell",
       "a per-cell .GetValue( or per-row AppendRowFrom( in src/exec/ or "
       "src/net/ — read the typed column vectors and use the gathers",
       "bad_boxed_cell.cc", RuleBoxedCell},
      {"naked-new",
       "naked 'new' — use std::make_unique/std::make_shared",
       "bad_new.cc", RuleNakedNew},
      {"mutex-guarded",
       "a header declaring a Mutex member must GUARDED_BY-annotate the "
       "state it protects",
       "bad_unguarded.h", RuleMutexGuarded},
      {"metadata-map-stripe",
       "a GUARDED_BY'd map member in a src/metadata/ header needs a "
       "'shard-stripe' justification",
       "bad_metadata_map.h", RuleMetadataMapStripe},
      {"compensation-comment",
       "a PlanNode construction in view_matcher/view_rewriter needs a "
       "'// compensation: <why>' comment",
       "bad_compensation.cc", RuleCompensationComment},
      {"assert-side-effect",
       "assert() whose argument mutates state vanishes under NDEBUG",
       "bad_assert.cc", RuleAssertSideEffect},
      {"header-guard",
       "include guards must be CLOUDVIEWS_<PATH>_H_",
       "bad_guard.h", RuleHeaderGuard},
      {"nolint-reason",
       "NOLINT must carry a category and reason: NOLINT(rule): why",
       "bad_nolint.cc", RuleNolintReason},
  };
  return kRules;
}

std::vector<Violation> LintFile(const std::string& display_path,
                                const std::string& rel_path,
                                const std::string& content) {
  FileCtx ctx;
  ctx.display_path = display_path;
  ctx.rel_path = rel_path;
  ctx.content = &content;
  ctx.is_header =
      rel_path.size() >= 2 && rel_path.rfind(".h") == rel_path.size() - 2;
  for (Token& t : Tokenize(content)) {
    if (t.kind == TokenKind::kComment) {
      ctx.comments.push_back(std::move(t));
    } else {
      ctx.code.push_back(std::move(t));
    }
  }
  for (const Token& c : ctx.comments) {
    bool reasoned = false;
    bool nextline = false;
    if (FindNolint(c.text, &reasoned, &nextline) && reasoned) {
      ctx.suppressed_lines.insert(c.line);
      if (nextline) ctx.suppressed_lines.insert(c.line + 1);
    }
  }

  std::vector<Violation> out;
  for (const LintRule& rule : AllRules()) {
    std::vector<Violation> found;
    rule.fn(ctx, &found);
    for (Violation& v : found) {
      // A reasoned NOLINT exempts its line from every rule but the NOLINT
      // discipline itself.
      if (std::string(rule.name) != "nolint-reason" &&
          ctx.suppressed_lines.count(v.line) > 0) {
        continue;
      }
      out.push_back(std::move(v));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

std::vector<Violation> LintTree(const std::vector<std::string>& roots) {
  std::vector<Violation> out;
  for (const auto& root : roots) {
    std::error_code ec;
    fs::path root_path(root);
    std::string prefix = root_path.filename().string();
    if (prefix.empty()) prefix = root_path.parent_path().filename().string();
    if (!fs::is_directory(root_path, ec)) {
      out.push_back({root, 0, "io-error", "not a directory"});
      continue;
    }
    std::vector<fs::path> files;
    for (fs::recursive_directory_iterator it(root_path, ec), end;
         it != end; it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::string p = it->path().string();
      if (p.find("lint_fixtures") != std::string::npos) continue;
      if (p.find("analyzer_fixtures") != std::string::npos) continue;
      files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      std::ifstream in(file, std::ios::binary);
      if (!in) {
        out.push_back({file.string(), 0, "io-error", "unreadable file"});
        continue;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      std::string rel =
          prefix + "/" + fs::relative(file, root_path, ec).generic_string();
      auto violations = LintFile(file.string(), rel, ss.str());
      out.insert(out.end(), violations.begin(), violations.end());
    }
  }
  return out;
}

}  // namespace lint
}  // namespace cloudviews
