// Build provenance: which exact binary produced an artifact.
//
// Every exported artifact that outlives the process that wrote it — trace
// exports, provenance JSON, --version output — carries the same build-info
// block, so a Perfetto timeline or an --explain dump can always be traced
// back to the git revision and flag configuration that produced it. The
// values are stamped at configure time (see src/obs/CMakeLists.txt); a
// build from an exported tree reports "unknown" rather than guessing.
#pragma once

#include <string>

namespace microscope::obs {

struct BuildInfo {
  /// Short git hash of HEAD at configure time ("unknown" outside a repo).
  std::string git_hash;
  /// CMAKE_BUILD_TYPE of this binary (RelWithDebInfo, Debug, ...).
  std::string build_type;
  /// Compiler identification string (__VERSION__).
  std::string compiler;
  /// MICROSCOPE_SANITIZE configuration ("none" when not sanitized).
  std::string sanitizers;
};

/// The build info of this binary.
const BuildInfo& build_info();

/// One-line JSON object: {"git_hash": ..., "build_type": ..., "compiler":
/// ..., "sanitizers": ...}. Stamped verbatim into trace exports and
/// provenance headers.
std::string build_info_json();

/// Aligned human-readable block for --version output.
std::string build_info_text();

}  // namespace microscope::obs
