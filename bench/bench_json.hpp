#pragma once

/// \file bench_json.hpp
/// Shared result-file plumbing for the bench executables.
///
/// All benchmarks append into ONE results file (BENCH_engine.json) shaped as
/// named top-level sections, so independent benches can update their own
/// section without clobbering each other's:
///
///   {
///     "engine_scaling": { ... },
///     "<other bench>":  { ... }
///   }
///
/// `merge_json_section` is a depth-1 merge: it re-reads the file, replaces
/// (or adds) exactly one section, and rewrites the rest byte-for-byte.  The
/// parser only needs to split top-level `"key": { balanced object }` pairs —
/// anything that does not parse as a sectioned object (e.g. the legacy
/// single-object layout older benches wrote) is treated as absent and
/// overwritten wholesale.

#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace hem::bench {

/// Split a sectioned results file into its top-level `name -> raw object
/// text` pairs.  Returns an empty map when `text` is not an object whose
/// values are all objects (legacy layouts, corrupt files) — callers then
/// start a fresh file.
inline std::map<std::string, std::string> read_json_sections(const std::string& text) {
  std::map<std::string, std::string> sections;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
                               text[i] == '\r'))
      ++i;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return {};
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') return sections;  // empty object
  while (i < text.size()) {
    skip_ws();
    if (i >= text.size() || text[i] != '"') return {};
    const std::size_t key_start = ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') ++i;  // escaped char inside the key
      ++i;
    }
    if (i >= text.size()) return {};
    const std::string key = text.substr(key_start, i - key_start);
    ++i;
    skip_ws();
    if (i >= text.size() || text[i] != ':') return {};
    ++i;
    skip_ws();
    // Section values must be objects; anything else marks a legacy layout.
    if (i >= text.size() || text[i] != '{') return {};
    const std::size_t value_start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\')
          ++i;
        else if (c == '"')
          in_string = false;
        continue;
      }
      if (c == '"') in_string = true;
      if (c == '{') ++depth;
      if (c == '}' && --depth == 0) {
        ++i;
        break;
      }
    }
    if (depth != 0) return {};
    sections[key] = text.substr(value_start, i - value_start);
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') return sections;
    return {};
  }
  return {};
}

/// Replace (or add) one named section of the results file at `path` with
/// `body` (a complete JSON object, braces included) and rewrite the file.
/// Unknown/unsectioned existing content is discarded.  Returns false when
/// the file cannot be written.
inline bool merge_json_section(const std::string& path, const std::string& section,
                               const std::string& body) {
  std::map<std::string, std::string> sections;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      sections = read_json_sections(buffer.str());
    }
  }
  sections[section] = body;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  std::size_t emitted = 0;
  for (const auto& [name, value] : sections) {
    out << "\"" << name << "\": " << value;
    if (++emitted < sections.size()) out << ",";
    out << "\n";
  }
  out << "}\n";
  return static_cast<bool>(out);
}

}  // namespace hem::bench
