// Minimal JSON emission for machine-readable diagnosis output.
//
// No external dependencies: a tiny writer with correct string escaping,
// plus serializers for the diagnosis artifacts operators feed into
// dashboards or ticketing automation.
#pragma once

#include <span>
#include <string>

#include "autofocus/aggregate.hpp"
#include "core/relation.hpp"
#include "obs/introspect.hpp"

namespace microscope::eval {

using obs::json_escape;

/// One victim's diagnosis as a JSON object:
/// {victim: {...}, causes: [{node, kind, score, t0_ns, t1_ns, flows: [...]}]}
std::string diagnosis_to_json(const core::Diagnosis& d,
                              const autofocus::NfCatalog& catalog);

/// A whole report: {victims: N, diagnoses: [...], patterns: [...]}
std::string report_to_json(std::span<const core::Diagnosis> diagnoses,
                           const autofocus::NfCatalog& catalog,
                           std::span<const autofocus::Pattern> patterns,
                           std::size_t max_diagnoses = 100);

}  // namespace microscope::eval
