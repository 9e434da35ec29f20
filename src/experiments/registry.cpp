#include "experiments/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace fairsfe::experiments {

bool ScenarioSpec::has_tag(const std::string& tag) const {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

rpd::UtilityEstimate estimate_utility(const ScenarioSpec& scenario,
                                      const rpd::EstimatorOptions& opts) {
  rpd::EstimatorOptions o = opts;
  if (!o.fault && scenario.fault) o.fault = *scenario.fault;
  rpd::EstimationTarget target;
  target.factory = scenario.attacks.front().factory;
  target.sliced = scenario.sliced;
  target.sliced_parties = scenario.sliced_parties;
  if (scenario.model) return rpd::estimate_utility(target, *scenario.model, o);
  return rpd::estimate_utility(target, rpd::VectorModel(scenario.gamma), o);
}

rpd::ProtocolAssessment assess_protocol(const ScenarioSpec& scenario,
                                        const rpd::EstimatorOptions& opts) {
  rpd::EstimatorOptions o = opts;
  if (!o.fault && scenario.fault) o.fault = *scenario.fault;
  if (scenario.model) return rpd::assess_protocol(scenario.attacks, *scenario.model, o);
  return rpd::assess_protocol(scenario.attacks, rpd::VectorModel(scenario.gamma), o);
}

Registry& Registry::instance() {
  static Registry* reg = [] {
    auto* r = new Registry();
    register_builtin_scenarios(*r);
    return r;
  }();
  return *reg;
}

void Registry::add(ScenarioSpec spec) {
  if (spec.id.empty() || !spec.run || spec.attacks.empty()) {
    std::fprintf(stderr, "registry: scenario '%s' is missing id, body, or attacks\n",
                 spec.id.c_str());
    std::abort();
  }
  if (find(spec.id) != nullptr) {
    std::fprintf(stderr, "registry: duplicate scenario id '%s'\n", spec.id.c_str());
    std::abort();
  }
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* Registry::find(const std::string& id) const {
  for (const ScenarioSpec& s : specs_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> Registry::all() const {
  std::vector<const ScenarioSpec*> out;
  out.reserve(specs_.size());
  for (const ScenarioSpec& s : specs_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const ScenarioSpec* a, const ScenarioSpec* b) { return a->id < b->id; });
  return out;
}

std::vector<const ScenarioSpec*> Registry::match(const std::string& filter) const {
  std::vector<const ScenarioSpec*> out;
  for (const ScenarioSpec* s : all()) {
    if (filter.empty() || glob_match(filter, s->id) ||
        s->id.find(filter) != std::string::npos) {
      out.push_back(s);
      continue;
    }
    for (const std::string& tag : s->tags) {
      if (glob_match(filter, tag)) {
        out.push_back(s);
        break;
      }
    }
  }
  return out;
}

bool Registry::glob_match(const std::string& pattern, const std::string& text) {
  // Iterative fnmatch with single-star backtracking.
  std::size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace fairsfe::experiments
