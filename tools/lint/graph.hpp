// fhdnn-lint whole-program analysis phase (DESIGN.md §15).
//
// The per-file rules in rules.cpp catch violations visible inside one
// translation unit; cross-file drift — a TU quietly including a higher
// layer, or a helper three calls deep reaching a wall clock from the round
// loop — needs a program-wide view. This header models exactly as much of
// the program as the stripped-token scanner can honestly extract:
//
//   * an include graph over every scanned file, with `#include "..."`
//     targets resolved against the including file's directory, then src/,
//     then the repo root (system and unresolved includes are ignored);
//   * a module DAG derived from the layering manifest below, with the
//     actual edges dumpable as Graphviz for the CI artifact;
//   * a declaration/call extractor: function definitions (name, optional
//     `Qual::` qualifier, body span) plus, per body, the identifiers
//     called and the direct effects observed (wall-clock reads, nondet
//     sources, heap allocation).
//
// Approximations are deliberate and documented (DESIGN.md §15): linking is
// by unqualified name (over-approximate — a call to `reset` reaches every
// project function named reset), constructors with init lists and
// operators are not extracted, and effects through function pointers or
// std::function are invisible. The rules built on top are therefore tuned
// so over-approximation can only add reachability, never hide it.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace fhdnn::lint {

// ---- layering manifest ---------------------------------------------------

/// Architecture layer of `module` (see module_of); higher layers may
/// include lower ones, same-layer bands may include each other as long as
/// the file-level graph stays acyclic. Returns kConsumerLayer for the
/// unconstrained consumers (tests/, bench/, examples/) and -1 for a module
/// missing from the manifest entirely.
int module_layer(std::string_view module);

inline constexpr int kConsumerLayer = 100;

/// Module key of a repo-relative path: "src/util/rng.hpp" -> "util",
/// "src/fl/serving.cpp" -> "fl/serving" (its own layer above wire/net),
/// "tools/lint/main.cpp" -> "tools", "tests/test_fl.cpp" -> "tests".
std::string module_of(std::string_view repo_path);

// ---- extracted program model ---------------------------------------------

/// One resolved project include: files[from].code line `line` includes
/// files[target].
struct IncludeRef {
  std::size_t target = 0;
  int line = 0;  ///< 1-based include line in the including file
};

enum class EffectKind {
  kWallClock,  ///< std::chrono::*_clock, time(), gettimeofday(), ...
  kNondet,     ///< std::random_device, rand(), getentropy(), ...
  kAlloc,      ///< new, malloc/calloc/realloc, make_unique/make_shared
};

std::string_view effect_kind_name(EffectKind kind);

/// A direct effect observed inside a function body.
struct Effect {
  EffectKind kind;
  std::string token;  ///< the offending token, for the message
  int line = 0;       ///< 1-based
};

/// A call site inside a function body (unqualified callee name).
struct CallSite {
  std::string name;
  int line = 0;
};

/// One extracted function definition.
struct Function {
  std::string name;       ///< unqualified ("round")
  std::string qualifier;  ///< enclosing qualifier when spelled Qual::name
  std::size_t file = 0;   ///< index into Program::files
  int line = 0;           ///< 1-based definition line
  std::vector<CallSite> calls;
  std::vector<Effect> effects;

  std::string display_name() const {
    return qualifier.empty() ? name : qualifier + "::" + name;
  }
};

/// The whole-program view handed to graph rules.
struct Program {
  std::vector<SourceFile> files;
  std::vector<std::string> repo_paths;  ///< files[i].repo_path(), cached
  std::vector<std::string> modules;     ///< module_of(repo_paths[i])
  std::vector<std::vector<IncludeRef>> includes;  ///< per file
  std::vector<Function> functions;      ///< src/ and tools/ only
  /// Unqualified name -> indices into `functions`.
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_name;
};

/// Build the program model from scanned sources (files keep their order).
Program build_program(std::vector<SourceFile> files);

// ---- graph rule framework ------------------------------------------------

/// Suppression-aware sink for whole-program rules; like Diagnostics but
/// reports carry an explicit file index (a cross-file finding is anchored
/// at, and suppressible at, the line it names).
class GraphDiagnostics {
 public:
  GraphDiagnostics(const Program& program, std::vector<Diagnostic>& out)
      : program_(program), out_(out) {}

  void report(std::string_view rule, std::size_t file, int line,
              std::string message);

 private:
  const Program& program_;
  std::vector<Diagnostic>& out_;
};

/// A whole-program rule: sees every file at once.
class GraphRule {
 public:
  virtual ~GraphRule() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  virtual void check(const Program& program, GraphDiagnostics& diags) const = 0;
};

/// The built-in whole-program rules: layer-dag, det-effects,
/// include-graph-hygiene (see graph_rules.cpp for the catalog).
std::vector<std::unique_ptr<GraphRule>> default_graph_rules();

/// Run `rules` over an already-built program.
void lint_program(const Program& program,
                  const std::vector<std::unique_ptr<GraphRule>>& rules,
                  std::vector<Diagnostic>& out);

/// Convenience for tests: scan the (path, content) fixtures against the
/// optional repo `root`, build the program, and run `rules`.
std::vector<Diagnostic> lint_program_sources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const std::vector<std::unique_ptr<GraphRule>>& rules,
    std::string_view root = {});

// ---- CI outputs ----------------------------------------------------------

/// Graphviz dump of the actual module graph: one node per module, one edge
/// per module pair with the file-edge count as label; edges that violate
/// the layering manifest are drawn red.
std::string graph_dot(const Program& program);

/// Machine-readable diagnostics for CI annotations:
/// {"version":1,"files":N,"diagnostics":[{"path":...,"line":...,
///  "rule":...,"message":...},...]}  — one top-level object, stable key
/// order, paths forward-slashed, no trailing newline inside the array.
std::string diagnostics_json(const std::vector<Diagnostic>& diags,
                             std::size_t n_files);

}  // namespace fhdnn::lint
