#include "obs/build_info.hpp"

#ifndef MICROSCOPE_GIT_HASH
#define MICROSCOPE_GIT_HASH "unknown"
#endif
#ifndef MICROSCOPE_BUILD_TYPE
#define MICROSCOPE_BUILD_TYPE "unknown"
#endif
#ifndef MICROSCOPE_SANITIZE_STR
#define MICROSCOPE_SANITIZE_STR ""
#endif

namespace microscope::obs {

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_hash = MICROSCOPE_GIT_HASH;
    b.build_type = MICROSCOPE_BUILD_TYPE;
    b.compiler = __VERSION__;
    b.sanitizers = MICROSCOPE_SANITIZE_STR;
    if (b.sanitizers.empty()) b.sanitizers = "none";
    return b;
  }();
  return info;
}

std::string build_info_json() {
  const BuildInfo& b = build_info();
  std::string out = "{\"git_hash\": \"" + b.git_hash + "\", ";
  out += "\"build_type\": \"" + b.build_type + "\", ";
  out += "\"compiler\": \"" + b.compiler + "\", ";
  out += "\"sanitizers\": \"" + b.sanitizers + "\"}";
  return out;
}

std::string build_info_text() {
  const BuildInfo& b = build_info();
  std::string out;
  out += "  git:        " + b.git_hash + "\n";
  out += "  build:      " + b.build_type + "\n";
  out += "  compiler:   " + b.compiler + "\n";
  out += "  sanitizers: " + b.sanitizers + "\n";
  return out;
}

}  // namespace microscope::obs
