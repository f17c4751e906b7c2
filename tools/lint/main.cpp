// fhdnn-lint CLI.
//
// Usage: fhdnn-lint [--rules=a,b] [--list-rules] [--quiet] [--json]
//                   [--graph-dot=FILE] [--root=DIR] <path>...
//
// Paths may be files or directories (walked recursively for .hpp/.h/.cpp).
// --root names the repository root: module and path-prefix rules see each
// file's path relative to it, so the checkout location (even one under an
// ancestor directory called src/) never changes the result. Without it,
// repo paths are guessed from the first top-level dir name in each path.
// Two phases run over the collected set: the per-file rules (rules.cpp),
// then the whole-program rules (graph_rules.cpp: layer-dag, det-effects,
// include-graph-hygiene) over the include/call graph of everything
// scanned. --json emits machine-readable diagnostics for CI annotations;
// --graph-dot dumps the actual module graph as Graphviz.
// Exit codes are the contract: 0 clean, 1 violations found, 2 usage or I/O
// error. There is deliberately no --fix.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph.hpp"
#include "lint.hpp"

namespace {

namespace fs = std::filesystem;
using fhdnn::lint::Diagnostic;

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp";
}

/// Collect files under `root` in sorted order so output (and therefore CI
/// diffs) is stable across platforms and filesystems.
bool collect(const fs::path& root, std::vector<fs::path>& out) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    if (lintable(root)) out.push_back(root);
    return true;
  }
  if (!fs::is_directory(root, ec)) {
    std::cerr << "fhdnn-lint: cannot read " << root.string() << "\n";
    return false;
  }
  std::vector<fs::path> found;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec) && lintable(it->path())) {
      found.push_back(it->path());
    }
  }
  std::sort(found.begin(), found.end());
  out.insert(out.end(), found.begin(), found.end());
  return true;
}

/// Absolute, lexically normalized, forward-slash form of `p`, so a root and
/// the files under it compare as plain string prefixes however each was
/// spelled on the command line.
std::string absolute_generic(const fs::path& p) {
  std::error_code ec;
  const fs::path abs = fs::absolute(p, ec);
  return (ec ? p : abs).lexically_normal().generic_string();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int usage(std::ostream& os, int code) {
  os << "usage: fhdnn-lint [--rules=a,b] [--list-rules] [--quiet] [--json]\n"
     << "                  [--graph-dot=FILE] [--root=DIR] <path>...\n"
     << "  --rules=a,b      run only the named rules (per-file or "
        "whole-program)\n"
     << "  --list-rules     print the rule catalog and exit\n"
     << "  --quiet          suppress the summary line\n"
     << "  --json           machine-readable diagnostics on stdout\n"
     << "  --graph-dot=FILE write the module include graph as Graphviz\n"
     << "  --root=DIR       repository root that anchors repo-relative paths\n"
     << "exit codes: 0 clean, 1 violations, 2 usage/IO error\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> rule_filter;
  std::vector<fs::path> roots;
  bool list_rules = false;
  bool quiet = false;
  bool json = false;
  std::string graph_dot_path;
  std::string repo_root;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.starts_with("--graph-dot=")) {
      graph_dot_path = arg.substr(12);
    } else if (arg.starts_with("--root=")) {
      repo_root = absolute_generic(arg.substr(7));
    } else if (arg.starts_with("--rules=")) {
      rule_filter = split_csv(arg.substr(8));
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg.starts_with("-")) {
      std::cerr << "fhdnn-lint: unknown option " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      roots.emplace_back(arg);
    }
  }

  auto rules = fhdnn::lint::default_rules();
  auto graph_rules = fhdnn::lint::default_graph_rules();
  if (!rule_filter.empty()) {
    for (const auto& name : rule_filter) {
      const bool known =
          std::any_of(rules.begin(), rules.end(),
                      [&](const auto& r) { return r->name() == name; }) ||
          std::any_of(graph_rules.begin(), graph_rules.end(),
                      [&](const auto& r) { return r->name() == name; });
      if (!known) {
        std::cerr << "fhdnn-lint: unknown rule '" << name << "'\n";
        return 2;
      }
    }
    std::erase_if(rules, [&](const auto& r) {
      return std::find(rule_filter.begin(), rule_filter.end(), r->name()) ==
             rule_filter.end();
    });
    std::erase_if(graph_rules, [&](const auto& r) {
      return std::find(rule_filter.begin(), rule_filter.end(), r->name()) ==
             rule_filter.end();
    });
  }

  if (list_rules) {
    for (const auto& r : rules) {
      std::cout << r->name() << "\n    " << r->description() << "\n";
    }
    for (const auto& r : graph_rules) {
      std::cout << r->name() << "\n    " << r->description() << "\n";
    }
    return 0;
  }
  if (roots.empty()) return usage(std::cerr, 2);

  std::vector<fs::path> files;
  for (const auto& root : roots) {
    if (!collect(root, files)) return 2;
  }

  // Phase 1: per-file rules, streaming over the scanned set; the scanned
  // sources are kept for the whole-program phase.
  std::vector<fhdnn::lint::SourceFile> sources;
  sources.reserve(files.size());
  std::vector<Diagnostic> diags;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "fhdnn-lint: cannot open " << file.string() << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    fhdnn::lint::SourceFile source =
        fhdnn::lint::scan_source(file.generic_string(), buf.str());
    if (!repo_root.empty()) {
      source.root_relative =
          fhdnn::lint::relative_to_root(absolute_generic(file), repo_root);
    }
    sources.push_back(std::move(source));
    fhdnn::lint::lint_file(sources.back(), rules, diags);
  }

  // Phase 2: whole-program rules over the include/call graph.
  if (!graph_rules.empty() || !graph_dot_path.empty()) {
    const fhdnn::lint::Program program =
        fhdnn::lint::build_program(std::move(sources));
    fhdnn::lint::lint_program(program, graph_rules, diags);
    if (!graph_dot_path.empty()) {
      std::ofstream dot(graph_dot_path, std::ios::binary);
      if (!dot) {
        std::cerr << "fhdnn-lint: cannot write " << graph_dot_path << "\n";
        return 2;
      }
      dot << fhdnn::lint::graph_dot(program);
    }
  }

  if (json) {
    std::cout << fhdnn::lint::diagnostics_json(diags, files.size());
  } else {
    for (const auto& d : diags) {
      std::cout << d.path << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
    }
    if (!quiet) {
      std::cout << "fhdnn-lint: " << files.size() << " files, " << diags.size()
                << " violation" << (diags.size() == 1 ? "" : "s") << "\n";
    }
  }
  return diags.empty() ? 0 : 1;
}
