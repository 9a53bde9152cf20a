#include "lint.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>

namespace censyslint {
namespace {

namespace fs = std::filesystem;

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string NormalizePath(const fs::path& p) { return p.generic_string(); }

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool IsHeaderPath(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp";
}

}  // namespace

// --- text utilities -----------------------------------------------------------

// Replaces comments and string/char literals with spaces (preserving
// newlines) so rule regexes and token scans never match inside them.
std::string StripCommentsAndStrings(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for raw strings: the )delim" terminator
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"') {
          std::size_t paren = in.find('(', i + 2);
          if (paren == std::string::npos) {
            out += c;
            break;
          }
          raw_delim = ")" + in.substr(i + 2, paren - (i + 2)) + "\"";
          state = State::kRawString;
          out += ' ';
          i = paren;  // swallow through the opening paren
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += ' ';
        } else {
          out += ' ';
        }
        break;
      case State::kRawString:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          for (std::size_t k = 0; k < raw_delim.size(); ++k) out += ' ';
          i += raw_delim.size() - 1;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream stream(text);
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

std::optional<SourceFile> LoadSource(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  SourceFile src;
  src.path = NormalizePath(file);
  src.header = IsHeaderPath(file);
  src.raw = buffer.str();
  src.code = StripCommentsAndStrings(src.raw);
  src.raw_lines = SplitLines(src.raw);
  src.code_lines = SplitLines(src.code);
  return src;
}

void CollectFiles(const fs::path& root, std::vector<fs::path>* files) {
  if (fs::is_regular_file(root)) {
    if (IsSourceFile(root)) files->push_back(root);
    return;
  }
  if (!fs::is_directory(root)) return;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (it->is_directory() && (name.rfind("build", 0) == 0 || name == ".git")) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && IsSourceFile(p)) files->push_back(p);
  }
  std::sort(files->begin(), files->end());
}

// --- waivers ------------------------------------------------------------------

// censyslint:allow(rule-a,rule-b) or censyslint:allow(rule): justification
Waiver FindWaiver(std::string_view raw_line, std::string_view rule) {
  Waiver waiver;
  static const std::string kTag = "censyslint:allow(";
  const std::string line(raw_line);
  std::size_t at = line.find(kTag);
  while (at != std::string::npos) {
    const std::size_t open = at + kTag.size();
    const std::size_t close = line.find(')', open);
    if (close == std::string::npos) break;
    // Split the rule list on commas.
    std::string list = line.substr(open, close - open);
    std::istringstream stream(list);
    std::string item;
    bool matched = false;
    while (std::getline(stream, item, ',')) {
      const std::size_t b = item.find_first_not_of(" \t");
      const std::size_t e = item.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      if (item.substr(b, e - b + 1) == rule) {
        matched = true;
        break;
      }
    }
    if (matched) {
      waiver.present = true;
      // Justification: text after an immediately following colon.
      std::size_t rest = close + 1;
      if (rest < line.size() && line[rest] == ':') {
        std::size_t jb = line.find_first_not_of(" \t", rest + 1);
        if (jb != std::string::npos) {
          waiver.justification = line.substr(jb);
          while (!waiver.justification.empty() &&
                 std::isspace(
                     static_cast<unsigned char>(waiver.justification.back()))) {
            waiver.justification.pop_back();
          }
        }
      }
      return waiver;
    }
    at = line.find(kTag, close);
  }
  return waiver;
}

Waiver FindWaiverNear(const std::vector<std::string>& raw_lines,
                      std::size_t idx, std::string_view rule) {
  if (idx >= raw_lines.size()) return Waiver{};
  Waiver waiver = FindWaiver(raw_lines[idx], rule);
  if (waiver.present) return waiver;
  // Walk up through an immediately preceding comment-only block.
  for (std::size_t k = idx; k > 0;) {
    --k;
    const std::string& line = raw_lines[k];
    const std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos || line.compare(b, 2, "//") != 0) break;
    waiver = FindWaiver(line, rule);
    if (waiver.present) return waiver;
  }
  return Waiver{};
}

// --- per-line rules -----------------------------------------------------------

namespace {

struct LineRule {
  std::string id;
  // Cheap substring pre-filter: the regex only runs on lines containing
  // `hint` (empty hint = always run). Keeps per-line cost dominated by
  // memchr instead of regex machinery.
  std::string hint;
  std::regex pattern;
  std::string message;
  std::vector<std::string> allowed_suffixes;
  bool headers_only = false;
  std::vector<std::string> only_under_any;
  std::vector<std::string> allowed_contains;
};

// Compiled exactly once per process (function-local static), never
// per-file: rule regexes are the dominant lint cost and --verbose prints
// per-pass timings to keep it visible.
const std::vector<LineRule>& LineRules() {
  static const std::vector<LineRule> kRules = {
      {"raw-mutex", "std",
       std::regex(
           R"(std\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock)\b)"),
       "raw standard-library lock; use the capability-annotated wrappers in "
       "core/thread_safety.h",
       {"core/thread_safety.h"},
       false,
       {},
       {}},
      {"wall-clock", "_clock",
       std::regex(
           R"(std\s*::\s*chrono\s*::\s*(steady_clock|system_clock|high_resolution_clock)\b)"),
       "wall-clock read; real time flows only through WallTimer in "
       "core/clock.h",
       {"core/clock.h"},
       false,
       {},
       {}},
      {"raw-random", "",
       std::regex(
           R"(std\s*::\s*(random_device|mt19937|mt19937_64|default_random_engine)\b|(^|[^:\w])s?rand\s*\()"),
       "nondeterministic randomness; use the seeded core Rng (core/rng.h)",
       {"core/rng.h", "core/rng.cc"},
       false,
       {},
       {}},
      {"thread-sleep", "sleep_",
       std::regex(
           R"(std\s*::\s*this_thread\s*::\s*sleep_(for|until)\b|\bthis_thread\s*::\s*sleep_(for|until)\b)"),
       "sleeping on wall time inside the simulator; simulated time advances "
       "via SimClock",
       {},
       false,
       {"src/"},
       {}},
      {"wall-timer", "WallTimer",
       std::regex(R"(\bWallTimer\b)"),
       "direct WallTimer use for stage timing; time spans through "
       "metrics::ScopedTimer or TRACE_SPAN (core/trace.h) so the "
       "measurement is registered and exportable",
       {"core/clock.h", "core/clock.cc", "core/metrics.h", "core/metrics.cc",
        "core/trace.h", "core/trace.cc"},
       false,
       {"src/"},
       {}},
      {"using-namespace-header", "using",
       std::regex(R"(^\s*using\s+namespace\s+[A-Za-z_])"),
       "`using namespace` at file scope in a header leaks into every "
       "includer",
       {},
       true,
       {},
       {}},
      {"raw-file-io", "",
       std::regex(
           R"(std\s*::\s*(o|i)?fstream\b|std\s*::\s*filebuf\b|\b(fopen|freopen|fdopen|tmpfile)\s*\(|(^|[^\w:])::\s*(open|creat|write|pwrite|fsync|fdatasync|ftruncate)\s*\()"),
       "direct file I/O outside src/storage/; bytes on disk flow through "
       "the WAL-backed storage layer so crash consistency stays provable",
       {},
       false,
       {"src/"},
       {"src/storage/"}},
      {"raw-condvar", "",
       std::regex(
           R"(std\s*::\s*condition_variable(_any)?\b|\bnotify_(one|all)\s*\(|\.\s*wait(_for|_until)?\s*\()"),
       "blocking condvar handoff in the tick pipeline; workers claim jobs "
       "from an atomic cursor and publish per-slot ready flags "
       "(engines/tick_pipeline.h) so the commit thread can help instead "
       "of sleeping",
       {},
       false,
       {"src/engines/", "src/interrogate/"},
       {}},
  };
  return kRules;
}

bool PathAllowed(const std::string& path,
                 const std::vector<std::string>& suffixes) {
  return std::any_of(suffixes.begin(), suffixes.end(),
                     [&](const std::string& s) { return EndsWith(path, s); });
}

// The concurrency-contract rule: a file whose stripped text declares a
// core::Mutex / core::SharedMutex member must contain a "Concurrency:"
// comment somewhere (class-level contract). File granularity keeps the
// scanner honest without parsing class extents.
void CheckConcurrencyContract(const SourceFile& file,
                              std::vector<Finding>* findings) {
  static const std::regex kLockMember(
      R"(\bcore\s*::\s*(Mutex|SharedMutex)\s+\w+\s*;)");
  std::size_t first_lock_line = 0;
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    if (file.code_lines[i].find("core") == std::string::npos) continue;
    if (std::regex_search(file.code_lines[i], kLockMember)) {
      first_lock_line = i + 1;
      break;
    }
  }
  if (first_lock_line == 0) return;
  for (const std::string& line : file.raw_lines) {
    if (line.find("Concurrency:") != std::string::npos) return;
  }
  if (FindWaiver(file.raw_lines[first_lock_line - 1], "concurrency-contract")
          .present) {
    return;
  }
  findings->push_back({file.path, first_lock_line, "concurrency-contract",
                       "class holds a core lock but the file has no \"// "
                       "Concurrency:\" contract comment",
                       "contract", false});
}

}  // namespace

void RunLineRules(const SourceFile& file, std::vector<Finding>* findings) {
  for (const LineRule& rule : LineRules()) {
    if (rule.headers_only && !file.header) continue;
    if (!rule.only_under_any.empty() &&
        std::none_of(rule.only_under_any.begin(), rule.only_under_any.end(),
                     [&](const std::string& s) {
                       return file.path.find(s) != std::string::npos;
                     })) {
      continue;
    }
    if (PathAllowed(file.path, rule.allowed_suffixes)) continue;
    if (std::any_of(rule.allowed_contains.begin(), rule.allowed_contains.end(),
                    [&](const std::string& s) {
                      return file.path.find(s) != std::string::npos;
                    })) {
      continue;
    }
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
      if (!rule.hint.empty() &&
          file.code_lines[i].find(rule.hint) == std::string::npos) {
        continue;
      }
      if (!std::regex_search(file.code_lines[i], rule.pattern)) continue;
      if (i < file.raw_lines.size() &&
          FindWaiverNear(file.raw_lines, i, rule.id).present) {
        continue;
      }
      findings->push_back(
          {file.path, i + 1, rule.id, rule.message, rule.id, false});
    }
  }
  CheckConcurrencyContract(file, findings);
}

// --- layering pass ------------------------------------------------------------

LayerGraph ParseLayers(const std::string& text) {
  LayerGraph graph;
  std::size_t lineno = 0;
  for (const std::string& raw : SplitLines(text)) {
    ++lineno;
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      graph.errors.push_back("line " + std::to_string(lineno) +
                             ": expected `layer: deps...`");
      continue;
    }
    std::string layer = line.substr(b, colon - b);
    while (!layer.empty() &&
           std::isspace(static_cast<unsigned char>(layer.back()))) {
      layer.pop_back();
    }
    if (layer.empty() || layer.find(' ') != std::string::npos) {
      graph.errors.push_back("line " + std::to_string(lineno) +
                             ": bad layer name");
      continue;
    }
    if (graph.allowed.count(layer) != 0) {
      graph.errors.push_back("line " + std::to_string(lineno) +
                             ": duplicate layer `" + layer + "`");
      continue;
    }
    std::set<std::string>& deps = graph.allowed[layer];
    std::istringstream stream(line.substr(colon + 1));
    std::string dep;
    while (stream >> dep) deps.insert(dep);
  }
  // Every declared dependency must itself be a declared layer, or the DAG
  // silently grows undeclared nodes.
  for (const auto& [layer, deps] : graph.allowed) {
    for (const std::string& dep : deps) {
      if (graph.allowed.count(dep) == 0) {
        graph.errors.push_back("layer `" + layer + "` depends on undeclared `" +
                               dep + "`");
      }
    }
  }
  return graph;
}

namespace {

// Generic DFS cycle finder over string-keyed adjacency. Returns the first
// cycle found (deterministic: nodes and edges visited in sorted order),
// first element repeated at the end; empty when acyclic.
std::vector<std::string> FindCycle(
    const std::map<std::string, std::set<std::string>>& adj) {
  enum class Mark { kWhite, kGray, kBlack };
  std::map<std::string, Mark> mark;
  for (const auto& [node, deps] : adj) {
    mark[node] = Mark::kWhite;
    for (const std::string& d : deps) mark.emplace(d, Mark::kWhite);
  }
  std::vector<std::string> stack;
  std::vector<std::string> cycle;

  std::function<bool(const std::string&)> visit =
      [&](const std::string& node) -> bool {
    mark[node] = Mark::kGray;
    stack.push_back(node);
    const auto it = adj.find(node);
    if (it != adj.end()) {
      for (const std::string& next : it->second) {
        if (mark[next] == Mark::kBlack) continue;
        if (mark[next] == Mark::kGray) {
          const auto at = std::find(stack.begin(), stack.end(), next);
          cycle.assign(at, stack.end());
          cycle.push_back(next);
          return true;
        }
        if (visit(next)) return true;
      }
    }
    stack.pop_back();
    mark[node] = Mark::kBlack;
    return false;
  };
  for (const auto& [node, deps] : adj) {
    if (mark[node] == Mark::kWhite && visit(node)) return cycle;
  }
  return {};
}

std::string JoinCycle(const std::vector<std::string>& cycle) {
  std::string out;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i != 0) out += " -> ";
    out += cycle[i];
  }
  return out;
}

}  // namespace

std::vector<std::string> FindLayerCycle(const LayerGraph& graph) {
  return FindCycle(graph.allowed);
}

std::string LayerOf(std::string_view path) {
  // The segment after the last "src" component, when a further segment
  // (the file) follows it.
  std::vector<std::string> parts;
  std::string current;
  for (char c : path) {
    if (c == '/') {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  for (std::size_t i = parts.size(); i-- > 0;) {
    if (parts[i] == "src" && i + 2 < parts.size()) {
      return parts[i + 1];
    }
  }
  return "";
}

void RunLayeringPass(const std::vector<SourceFile>& files,
                     const LayerGraph& graph, const std::string& layers_path,
                     std::vector<Finding>* findings) {
  for (const std::string& error : graph.errors) {
    findings->push_back({layers_path, 0, "layering", "layers.txt: " + error,
                         "parse", false});
  }
  const std::vector<std::string> dag_cycle = FindLayerCycle(graph);
  if (!dag_cycle.empty()) {
    findings->push_back({layers_path, 0, "layering",
                         "declared layer graph is cyclic: " +
                             JoinCycle(dag_cycle),
                         "dag-cycle", false});
  }

  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  for (const SourceFile& file : files) {
    const std::string layer = LayerOf(file.path);
    if (layer.empty()) continue;  // not under a src/<dir>/ tree
    if (!graph.Declares(layer)) {
      findings->push_back({file.path, 1, "layering",
                           "directory `" + layer +
                               "` is not declared in layers.txt; every "
                               "src/ directory must have a layer entry",
                           "undeclared:" + layer, false});
      continue;
    }
    const std::set<std::string>& allowed = graph.allowed.at(layer);
    for (std::size_t i = 0; i < file.raw_lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(file.raw_lines[i], m, kInclude)) continue;
      const std::string target_path = m[1].str();
      const std::size_t slash = target_path.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      const std::string target = target_path.substr(0, slash);
      if (target == layer) continue;
      if (!graph.Declares(target)) continue;  // external (gtest etc.)
      if (allowed.count(target) != 0) continue;
      if (FindWaiverNear(file.raw_lines, i, "layering").present) continue;
      findings->push_back(
          {file.path, i + 1, "layering",
           "`" + layer + "` must not include `" + target_path +
               "`: the layer DAG (tools/censyslint/layers.txt) places `" +
               target + "` above `" + layer +
               "`; invert the dependency or move the shared type down",
           layer + "->" + target, false});
    }
  }
}

// --- lock-order pass ----------------------------------------------------------

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kWords = {
      "if",      "for",     "while",   "switch",   "return", "sizeof",
      "alignof", "decltype", "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast", "catch",   "new",      "delete", "assert",
      "defined", "noexcept", "throw", "operator", "int",    "char",
      "bool",    "void",    "auto",   "double",   "float",  "unsigned"};
  return kWords;
}

// Canonicalizes a lock constructor argument into a member-ish path:
// strips subscripts, dereferences, and casts; "shards_[s].mu" -> "shards_.mu".
std::string CanonicalLockExpr(std::string expr) {
  std::string out;
  int bracket = 0;
  for (char c : expr) {
    if (c == '[') {
      ++bracket;
      continue;
    }
    if (c == ']') {
      --bracket;
      continue;
    }
    if (bracket > 0) continue;
    if (std::isspace(static_cast<unsigned char>(c)) || c == '*' || c == '&') {
      continue;
    }
    out += c;
  }
  // "->" becomes "." so pointer and reference paths unify.
  std::string normalized;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] == '-' && i + 1 < out.size() && out[i + 1] == '>') {
      normalized += '.';
      ++i;
    } else {
      normalized += out[i];
    }
  }
  return normalized;
}

}  // namespace

void ScanFunctions(const SourceFile& file, std::vector<FunctionInfo>* out) {
  const std::string& code = file.code;

  // Context stack entry per '{': what kind of scope it opened.
  struct Scope {
    enum class Kind { kBlock, kClass, kFunction, kOther } kind = Kind::kOther;
    std::string class_name;  // for kClass
  };
  std::vector<Scope> scopes;
  std::string current_class;           // innermost class/struct name
  FunctionInfo* current_fn = nullptr;  // non-null inside a function body
  int fn_scope_depth = 0;              // scopes.size() when the body opened

  // Live acquisitions inside the current function, with the scope depth at
  // which each must pop.
  struct Live {
    std::string lock;
    int close_depth;
  };
  std::vector<Live> live;

  std::size_t line = 1;
  std::size_t prefix_start = 0;  // start of the "statement prefix" text

  static const std::regex kClassDecl(R"(\b(class|struct)\s+([A-Za-z_]\w*))");
  static const std::regex kQualifiedFn(
      R"(([A-Za-z_]\w*)\s*::\s*~?([A-Za-z_]\w*)\s*\($)");
  static const std::regex kPlainFn(R"((~?[A-Za-z_]\w*)\s*\($)");
  static const std::regex kAcquire(
      R"(\b(?:core\s*::\s*)?(MutexLock|ReaderLock)\s+\w+\s*[({]([^)}]*)[)}])");
  static const std::regex kCall(R"((\.|->)?\s*([A-Za-z_]\w*)\s*\()");

  auto classify_brace = [&](std::size_t brace_pos) -> Scope {
    Scope scope;
    std::string prefix = code.substr(prefix_start, brace_pos - prefix_start);
    // Class/struct scope: a class-decl with no parameter list after it.
    std::smatch m;
    std::string tail = prefix;
    if (std::regex_search(tail, m, kClassDecl)) {
      const std::string after = m.suffix().str();
      if (after.find('(') == std::string::npos) {
        scope.kind = Scope::Kind::kClass;
        // Use the LAST class-decl in the prefix.
        std::string name = m[2].str();
        std::string rest = after;
        std::smatch m2;
        while (std::regex_search(rest, m2, kClassDecl)) {
          name = m2[2].str();
          rest = m2.suffix().str();
        }
        scope.class_name = name;
        return scope;
      }
    }
    // Function body: the prefix contains a parameter list. Find the first
    // '(' whose preceding identifier is not a keyword; constructor
    // initializer lists and trailing annotations follow it.
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      if (prefix[i] != '(') continue;
      std::string head = prefix.substr(0, i + 1);
      std::smatch fm;
      std::string cls;
      std::string name;
      if (std::regex_search(head, fm, kQualifiedFn)) {
        cls = fm[1].str();
        name = fm[2].str();
      } else if (std::regex_search(head, fm, kPlainFn)) {
        name = fm[1].str();
      }
      if (name.empty() || CallKeywords().count(name) != 0 ||
          name == "function") {
        continue;  // control flow / cast / std::function return type
      }
      // Already inside a body: a function-looking brace here is a lambda
      // or call-argument block — treat as a plain block of the enclosing
      // function. (Also keeps `current_fn` stable: pushing here could
      // reallocate *out and dangle the pointer.)
      if (current_fn != nullptr) {
        scope.kind = Scope::Kind::kBlock;
        return scope;
      }
      scope.kind = Scope::Kind::kFunction;
      FunctionInfo info;
      info.class_name = cls.empty() ? current_class : cls;
      info.name = name;
      info.file = file.path;
      info.line = line;
      out->push_back(std::move(info));
      return scope;
    }
    scope.kind = Scope::Kind::kBlock;
    return scope;
  };

  auto lock_id = [&](const std::string& expr) {
    const std::string canon = CanonicalLockExpr(expr);
    const std::string owner = current_fn != nullptr && !current_fn->class_name.empty()
                                  ? current_fn->class_name
                                  : file.path;
    return owner + "::" + canon;
  };

  auto scan_statement = [&](std::size_t begin, std::size_t end) {
    if (current_fn == nullptr || begin >= end) return;
    const std::string stmt = code.substr(begin, end - begin);
    const std::size_t stmt_line =
        line - std::count(stmt.begin(), stmt.end(), '\n');
    // Acquisitions.
    std::smatch m;
    std::string rest = stmt;
    if (stmt.find("Lock") != std::string::npos) {
      while (std::regex_search(rest, m, kAcquire)) {
        FunctionInfo::Acquisition acq;
        acq.lock = lock_id(m[2].str());
        acq.line = stmt_line;
        acq.depth = static_cast<int>(scopes.size()) - fn_scope_depth;
        acq.reader = m[1].str() == "ReaderLock";
        for (const Live& held : live) {
          if (held.lock == acq.lock) continue;
          current_fn->nested.push_back({held.lock, acq.lock, stmt_line});
        }
        live.push_back({acq.lock, static_cast<int>(scopes.size())});
        current_fn->acquisitions.push_back(std::move(acq));
        rest = m.suffix().str();
      }
    }
    // Calls (for cross-function propagation).
    rest = stmt;
    while (std::regex_search(rest, m, kCall)) {
      const std::string name = m[2].str();
      const bool member = m[1].matched && m[1].length() > 0;
      if (CallKeywords().count(name) == 0 && name != "MutexLock" &&
          name != "ReaderLock" && name != "ThreadRoleGuard") {
        FunctionInfo::Call call;
        call.callee = name;
        call.member_syntax = member;
        call.line = stmt_line;
        for (const Live& held : live) call.held.push_back(held.lock);
        current_fn->calls.push_back(std::move(call));
      }
      rest = m.suffix().str();
    }
  };

  std::size_t i = 0;
  std::size_t stmt_start = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == '{') {
      scan_statement(stmt_start, i);
      Scope scope = classify_brace(i);
      if (scope.kind == Scope::Kind::kFunction) {
        current_fn = &out->back();
        fn_scope_depth = static_cast<int>(scopes.size());
        live.clear();
      }
      if (scope.kind == Scope::Kind::kClass) current_class = scope.class_name;
      scopes.push_back(scope);
      prefix_start = i + 1;
      stmt_start = i + 1;
      ++i;
      continue;
    }
    if (c == '}') {
      scan_statement(stmt_start, i);
      if (!scopes.empty()) {
        const Scope closed = scopes.back();
        scopes.pop_back();
        const int depth_now = static_cast<int>(scopes.size());
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](const Live& held) {
                                    return held.close_depth > depth_now;
                                  }),
                   live.end());
        if (closed.kind == Scope::Kind::kFunction &&
            depth_now == fn_scope_depth) {
          current_fn = nullptr;
          live.clear();
        }
        if (closed.kind == Scope::Kind::kClass) {
          // Restore the next-innermost class name.
          current_class.clear();
          for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (it->kind == Scope::Kind::kClass) {
              current_class = it->class_name;
              break;
            }
          }
        }
      }
      prefix_start = i + 1;
      stmt_start = i + 1;
      ++i;
      continue;
    }
    if (c == ';') {
      scan_statement(stmt_start, i + 1);
      prefix_start = i + 1;
      stmt_start = i + 1;
      ++i;
      continue;
    }
    ++i;
  }
}

std::vector<LockEdge> BuildLockOrderGraph(
    const std::vector<FunctionInfo>& functions) {
  // Method name -> indices, for member-syntax call resolution.
  std::map<std::string, std::vector<std::size_t>> by_name;
  // (class, name) and (file, name) for bare-call resolution.
  std::map<std::string, std::vector<std::size_t>> by_class_name;
  std::map<std::string, std::vector<std::size_t>> by_file_name;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionInfo& fn = functions[i];
    by_name[fn.name].push_back(i);
    by_class_name[fn.class_name + "::" + fn.name].push_back(i);
    by_file_name[fn.file + "::" + fn.name].push_back(i);
  }

  auto resolve = [&](const FunctionInfo& caller,
                     const FunctionInfo::Call& call)
      -> const std::vector<std::size_t>* {
    if (call.member_syntax) {
      const auto it = by_name.find(call.callee);
      return it == by_name.end() ? nullptr : &it->second;
    }
    const auto same_class =
        by_class_name.find(caller.class_name + "::" + call.callee);
    if (same_class != by_class_name.end()) return &same_class->second;
    const auto same_file = by_file_name.find(caller.file + "::" + call.callee);
    return same_file == by_file_name.end() ? nullptr : &same_file->second;
  };

  // Fixpoint: locks(f) = direct locks + union of locks(callees).
  std::vector<std::set<std::string>> locks(functions.size());
  for (std::size_t i = 0; i < functions.size(); ++i) {
    for (const auto& acq : functions[i].acquisitions) locks[i].insert(acq.lock);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < functions.size(); ++i) {
      for (const auto& call : functions[i].calls) {
        const std::vector<std::size_t>* callees = resolve(functions[i], call);
        if (callees == nullptr) continue;
        for (std::size_t j : *callees) {
          for (const std::string& lock : locks[j]) {
            if (locks[i].insert(lock).second) changed = true;
          }
        }
      }
    }
  }

  // Edges: direct nesting plus held-at-call-site -> callee locks. Self
  // edges are skipped: token-level name collisions make same-lock
  // reacquisition too noisy to assert here, and clang's thread-safety
  // analysis already rejects genuine re-entry on annotated paths.
  std::vector<LockEdge> edges;
  std::set<std::string> seen;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, std::size_t line,
                      const std::string& via) {
    if (from == to) return;
    if (!seen.insert(from + "\x1f" + to).second) return;
    edges.push_back({from, to, file, line, via});
  };
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionInfo& fn = functions[i];
    for (const auto& pair : fn.nested) {
      add_edge(pair.from, pair.to, fn.file, pair.line, "");
    }
    for (const auto& call : fn.calls) {
      if (call.held.empty()) continue;
      const std::vector<std::size_t>* callees = resolve(fn, call);
      if (callees == nullptr) continue;
      for (std::size_t j : *callees) {
        for (const std::string& lock : locks[j]) {
          for (const std::string& held : call.held) {
            add_edge(held, lock, fn.file, call.line,
                     "via call to " + call.callee + "()");
          }
        }
      }
    }
  }
  return edges;
}

std::vector<std::string> FindLockCycle(const std::vector<LockEdge>& edges) {
  std::map<std::string, std::set<std::string>> adj;
  for (const LockEdge& edge : edges) adj[edge.from].insert(edge.to);
  return FindCycle(adj);
}

void RunLockOrderPass(const std::vector<SourceFile>& files,
                      std::vector<Finding>* findings) {
  std::vector<FunctionInfo> functions;
  for (const SourceFile& file : files) ScanFunctions(file, &functions);
  std::vector<LockEdge> edges = BuildLockOrderGraph(functions);

  // Remove edges waived at their provenance line.
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : files) by_path[file.path] = &file;
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [&](const LockEdge& edge) {
                               const auto it = by_path.find(edge.file);
                               if (it == by_path.end()) return false;
                               const auto& lines = it->second->raw_lines;
                               if (edge.line == 0 ||
                                   edge.line > lines.size()) {
                                 return false;
                               }
                               return FindWaiverNear(lines, edge.line - 1,
                                                     "lock-order")
                                   .present;
                             }),
              edges.end());

  // Report every cycle (peel one edge after each report so distinct
  // inversions surface in one run).
  std::map<std::string, std::pair<std::string, std::size_t>> provenance;
  for (const LockEdge& edge : edges) {
    provenance.emplace(edge.from + "\x1f" + edge.to,
                       std::make_pair(edge.file, edge.line));
  }
  std::vector<LockEdge> working = edges;
  for (int guard = 0; guard < 32; ++guard) {
    const std::vector<std::string> cycle = FindLockCycle(working);
    if (cycle.empty()) break;
    // Canonical signature: rotate so the smallest lock id leads.
    std::vector<std::string> nodes(cycle.begin(), cycle.end() - 1);
    const auto smallest = std::min_element(nodes.begin(), nodes.end());
    std::rotate(nodes.begin(), smallest, nodes.end());
    std::string signature;
    for (const std::string& n : nodes) {
      if (!signature.empty()) signature += "->";
      signature += n;
    }
    const auto prov =
        provenance.find(cycle[0] + "\x1f" + cycle[1]);
    const std::string file =
        prov != provenance.end() ? prov->second.first : "<unknown>";
    const std::size_t line = prov != provenance.end() ? prov->second.second : 0;
    findings->push_back(
        {file, line, "lock-order",
         "lock-acquisition-order cycle (potential deadlock inversion): " +
             JoinCycle(cycle) +
             "; pick one global order for these locks and normalize every "
             "path to it",
         signature, false});
    // Peel the reported cycle's first edge and look again.
    working.erase(std::remove_if(working.begin(), working.end(),
                                 [&](const LockEdge& e) {
                                   return e.from == cycle[0] &&
                                          e.to == cycle[1];
                                 }),
                  working.end());
  }
}

// --- unordered-iter pass ------------------------------------------------------

namespace {

// Matches the '<'..'>' template argument extent starting at `open` (which
// must index a '<'); returns the index one past the matching '>'.
std::size_t SkipTemplateArgs(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
    if (code[i] == ';') break;  // malformed / macro soup; bail
  }
  return std::string::npos;
}

const std::set<std::string>& OrderSensitiveDirs() {
  static const std::set<std::string> kDirs = {"pipeline", "storage", "engines",
                                              "search"};
  return kDirs;
}

}  // namespace

std::set<std::string> CollectUnorderedNames(
    const std::vector<SourceFile>& files) {
  std::set<std::string> names;
  std::set<std::string> alias_types;  // using X = std::unordered_map<...>;
  static const std::regex kDecl(R"(\bunordered_(map|set|multimap|multiset)\b)");
  static const std::regex kIdent(R"(^\s*[&*]*\s*([A-Za-z_]\w*))");

  auto scan = [&](const SourceFile& file) {
    const std::string& code = file.code;
    for (std::sregex_iterator it(code.begin(), code.end(), kDecl), end;
         it != end; ++it) {
      const std::size_t decl_at = static_cast<std::size_t>(it->position(0));
      // `using Alias = std::unordered_map<...>` declares a type, not a
      // variable; remember the alias so its declarations count too.
      {
        const std::size_t line_start = code.rfind('\n', decl_at);
        const std::string before = code.substr(
            line_start == std::string::npos ? 0 : line_start + 1,
            decl_at - (line_start == std::string::npos ? 0 : line_start + 1));
        std::smatch am;
        static const std::regex kUsing(
            R"(\busing\s+([A-Za-z_]\w*)\s*=\s*(std\s*::\s*)?$)");
        if (std::regex_search(before, am, kUsing)) {
          alias_types.insert(am[1].str());
          continue;
        }
      }
      // The template argument list must open right after the token, else
      // this is `#include <unordered_map>` or a bare mention, and scanning
      // ahead for '<' would bind some unrelated declaration's name.
      std::size_t open = decl_at + static_cast<std::size_t>(it->length(0));
      while (open < code.size() &&
             (code[open] == ' ' || code[open] == '\t')) {
        ++open;
      }
      if (open >= code.size() || code[open] != '<') continue;
      const std::size_t after = SkipTemplateArgs(code, open);
      if (after == std::string::npos) continue;
      const std::string rest = code.substr(after, 96);
      if (!rest.empty() && rest[0] == ':') continue;  // ::iterator etc.
      std::smatch m;
      if (std::regex_search(rest, m, kIdent)) {
        names.insert(m[1].str());
      }
    }
  };
  for (const SourceFile& file : files) scan(file);

  // Declarations through an unordered alias type: `Alias name;`.
  if (!alias_types.empty()) {
    for (const SourceFile& file : files) {
      for (const std::string& alias : alias_types) {
        const std::regex decl(
            "\\b" + alias + R"(\s+([A-Za-z_]\w*)\s*(;|=|\{|\())");
        const std::string& code = file.code;
        for (std::sregex_iterator it(code.begin(), code.end(), decl), end;
             it != end; ++it) {
          names.insert((*it)[1].str());
        }
      }
    }
  }
  return names;
}

bool InOrderSensitiveDir(std::string_view path) {
  const std::string layer = LayerOf(path);
  return OrderSensitiveDirs().count(layer) != 0;
}

void RunUnorderedIterPass(const std::vector<SourceFile>& files,
                          std::vector<Finding>* findings) {
  const std::set<std::string> unordered = CollectUnorderedNames(files);
  if (unordered.empty()) return;

  static const std::regex kLastIdent(R"(([A-Za-z_]\w*)[^A-Za-z_]*$)");
  static const std::regex kIterLoop(
      R"(\bfor\s*\([^:;)]*=\s*([\w.\[\]\->]+)\s*\.\s*c?begin\s*\()");

  auto trailing_ident = [](const std::string& expr) -> std::string {
    std::smatch m;
    if (std::regex_search(expr, m, kLastIdent)) return m[1].str();
    return "";
  };

  for (const SourceFile& file : files) {
    if (!InOrderSensitiveDir(file.path)) continue;
    for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
      const std::string& line = file.code_lines[i];
      std::string container;

      // Range-for: `for (<decl> : <expr>)` with no ';' in the parens.
      const std::size_t at = line.find("for");
      if (at != std::string::npos) {
        const std::size_t open = line.find('(', at);
        if (open != std::string::npos &&
            (at == 0 || !IsIdentChar(line[at - 1])) &&
            !IsIdentChar(line[at + 3])) {
          // Find the matching ')' on this line (range-fors here are
          // single-line in practice; multi-line loops fall to the
          // iterator pattern below).
          int depth = 0;
          std::size_t close = std::string::npos;
          int colon = -1;
          for (std::size_t k = open; k < line.size(); ++k) {
            if (line[k] == '(') ++depth;
            if (line[k] == ')') {
              --depth;
              if (depth == 0) {
                close = k;
                break;
              }
            }
            if (line[k] == ':' && depth == 1 && colon < 0 &&
                (k == 0 || line[k - 1] != ':') &&
                (k + 1 >= line.size() || line[k + 1] != ':')) {
              colon = static_cast<int>(k);
            }
          }
          const bool semicolon_in_parens =
              close != std::string::npos &&
              line.find(';', open) < close;  // classic for, not range-for
          if (close != std::string::npos && colon > 0 &&
              !semicolon_in_parens) {
            const std::string expr =
                line.substr(colon + 1, close - colon - 1);
            container = trailing_ident(expr);
          }
        }
      }
      if (container.empty()) {
        std::smatch m;
        if (std::regex_search(line, m, kIterLoop)) {
          container = trailing_ident(m[1].str());
        }
      }
      if (container.empty() || unordered.count(container) == 0) continue;

      const Waiver waiver =
          i < file.raw_lines.size()
              ? FindWaiverNear(file.raw_lines, i, "unordered-iter")
              : Waiver{};
      if (waiver.present && !waiver.justification.empty()) continue;
      std::string message =
          "iteration over std::unordered_* container `" + container +
          "` in order-sensitive code: hash-map order here can leak into "
          "journal bytes, digests, or served output; iterate a sorted "
          "copy, keep an ordered sibling index, or switch the container";
      if (waiver.present) {
        message +=
            " (waiver present but missing a justification — write "
            "`censyslint:allow(unordered-iter): <why order cannot "
            "escape>`)";
      }
      findings->push_back(
          {file.path, i + 1, "unordered-iter", message, container, false});
    }
  }
}

// --- baseline -----------------------------------------------------------------

Baseline ParseBaseline(const std::string& text) {
  Baseline baseline;
  for (const std::string& raw : SplitLines(text)) {
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const std::size_t p1 = line.find('|', b);
    if (p1 == std::string::npos) continue;
    const std::size_t p2 = line.find('|', p1 + 1);
    Baseline::Entry entry;
    entry.rule = line.substr(b, p1 - b);
    if (p2 == std::string::npos) {
      entry.path_suffix = line.substr(p1 + 1);
    } else {
      entry.path_suffix = line.substr(p1 + 1, p2 - p1 - 1);
      entry.key = line.substr(p2 + 1);
    }
    while (!entry.key.empty() &&
           std::isspace(static_cast<unsigned char>(entry.key.back()))) {
      entry.key.pop_back();
    }
    baseline.entries.push_back(std::move(entry));
  }
  return baseline;
}

void ApplyBaseline(const Baseline& baseline, std::vector<Finding>* findings) {
  for (Finding& finding : *findings) {
    for (const Baseline::Entry& entry : baseline.entries) {
      if (entry.rule != finding.rule) continue;
      if (!EndsWith(finding.file, entry.path_suffix)) continue;
      if (!entry.key.empty() && entry.key != finding.key) continue;
      finding.suppressed = true;
      break;
    }
  }
}

// --- orchestration ------------------------------------------------------------

namespace {

// Monotonic timing for --verbose pass costs. The linter runs outside the
// simulator, so reading the host clock here is sanctioned.
double NowMicros() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count());
}

}  // namespace

RunResult RunAllPasses(const std::vector<fs::path>& roots,
                       const RunOptions& options) {
  RunResult result;
  std::vector<fs::path> paths;
  for (const fs::path& root : roots) CollectFiles(root, &paths);
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    if (auto src = LoadSource(path)) {
      files.push_back(std::move(*src));
    } else {
      result.findings.push_back(
          {NormalizePath(path), 0, "io", "cannot read file", "io", false});
    }
  }
  result.file_count = files.size();

  auto timed = [&](const char* name, bool enabled, auto&& body) {
    if (!enabled) return;
    const double start = NowMicros();
    const std::size_t before = result.findings.size();
    body();
    result.timings.push_back(
        {name, NowMicros() - start, result.findings.size() - before});
  };

  timed("line-rules", options.line_rules, [&] {
    for (const SourceFile& file : files) RunLineRules(file, &result.findings);
  });
  timed("layering", options.layering && !options.layers_path.empty(), [&] {
    std::ifstream in(options.layers_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in && buffer.str().empty()) {
      result.findings.push_back({options.layers_path, 0, "layering",
                                 "cannot read layers file", "io", false});
      return;
    }
    const LayerGraph graph = ParseLayers(buffer.str());
    RunLayeringPass(files, graph, options.layers_path, &result.findings);
  });
  timed("lock-order", options.lock_order,
        [&] { RunLockOrderPass(files, &result.findings); });
  timed("unordered-iter", options.unordered_iter,
        [&] { RunUnorderedIterPass(files, &result.findings); });
  return result;
}

// --- SARIF --------------------------------------------------------------------

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ToSarif(const RunResult& result) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n"
      << "      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"censyslint\",\n"
      << "          \"informationUri\": \"docs/LINTING.md\",\n"
      << "          \"rules\": [\n";
  std::set<std::string> rules;
  for (const Finding& f : result.findings) rules.insert(f.rule);
  std::size_t k = 0;
  for (const std::string& rule : rules) {
    out << "            {\"id\": \"" << JsonEscape(rule) << "\"}"
        << (++k == rules.size() ? "\n" : ",\n");
  }
  out << "          ]\n        }\n      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n"
        << "          \"level\": \"" << (f.suppressed ? "note" : "error")
        << "\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(f.message)
        << "\"},\n";
    if (f.suppressed) {
      out << "          \"suppressions\": [{\"kind\": \"external\"}],\n";
    }
    out << "          \"partialFingerprints\": {\"censyslintKey\": \""
        << JsonEscape(f.key) << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": \""
        << JsonEscape(f.file) << "\"}, \"region\": {\"startLine\": "
        << (f.line == 0 ? 1 : f.line) << "}}}\n"
        << "          ]\n        }"
        << (i + 1 == result.findings.size() ? "\n" : ",\n");
  }
  out << "      ]\n    }\n  ]\n}\n";
  return out.str();
}

}  // namespace censyslint
