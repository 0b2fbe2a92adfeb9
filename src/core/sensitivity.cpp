#include "src/core/sensitivity.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/util/contracts.hpp"
#include "src/util/string_util.hpp"
#include "src/util/table.hpp"

namespace nvp::core {

double SensitivityEntry::swing() const {
  return std::fabs(value_up - value_down);
}

namespace {

struct Knob {
  const char* name;
  bool rejuvenation_only;
  bool is_probability;
  double (*get)(const SystemParameters&);
  void (*set)(SystemParameters&, double);
};

const Knob kKnobs[] = {
    {"alpha", false, true,
     [](const SystemParameters& p) { return p.alpha; },
     [](SystemParameters& p, double v) { p.alpha = v; }},
    {"p", false, true, [](const SystemParameters& p) { return p.p; },
     [](SystemParameters& p, double v) { p.p = v; }},
    {"p'", false, true,
     [](const SystemParameters& p) { return p.p_prime; },
     [](SystemParameters& p, double v) { p.p_prime = v; }},
    {"1/lambda_c", false, false,
     [](const SystemParameters& p) { return p.mean_time_to_compromise; },
     [](SystemParameters& p, double v) { p.mean_time_to_compromise = v; }},
    {"1/lambda", false, false,
     [](const SystemParameters& p) { return p.mean_time_to_failure; },
     [](SystemParameters& p, double v) { p.mean_time_to_failure = v; }},
    {"1/mu", false, false,
     [](const SystemParameters& p) { return p.mean_time_to_repair; },
     [](SystemParameters& p, double v) { p.mean_time_to_repair = v; }},
    {"1/gamma", true, false,
     [](const SystemParameters& p) { return p.rejuvenation_interval; },
     [](SystemParameters& p, double v) { p.rejuvenation_interval = v; }},
    {"rejuv duration", true, false,
     [](const SystemParameters& p) { return p.rejuvenation_duration; },
     [](SystemParameters& p, double v) { p.rejuvenation_duration = v; }},
};

}  // namespace

std::vector<SensitivityEntry> sensitivity_report(
    const ReliabilityAnalyzer& analyzer, const SystemParameters& base,
    double relative_step) {
  NVP_EXPECTS(relative_step > 0.0 && relative_step < 1.0);
  const obs::ScopedSpan span("core.sensitivity");
  base.validate();
  // Collect the active knobs' perturbed parameter sets, then evaluate all
  // of them (two solves per knob) and the center in one parallel batch.
  // Every knob perturbs a timing or reward parameter, so all the solves
  // share the explored reachability structure, which the single-flight
  // stage cache builds once.
  struct Perturbation {
    const Knob* knob;
    double theta, lo, hi;
    SystemParameters down, up;
  };
  std::vector<Perturbation> work;
  for (const Knob& knob : kKnobs) {
    if (knob.rejuvenation_only && !base.rejuvenation) continue;
    const double theta = knob.get(base);
    if (theta == 0.0) continue;  // relative perturbation undefined

    Perturbation p{&knob, theta, theta * (1.0 - relative_step),
                   theta * (1.0 + relative_step), base, base};
    if (knob.is_probability) p.hi = std::min(p.hi, 1.0);
    knob.set(p.down, p.lo);
    knob.set(p.up, p.hi);
    work.push_back(p);
  }

  // Index 0 is the center; index i > 0 fills the entry of work[i - 1].
  double center = 0.0;
  std::vector<SensitivityEntry> report(work.size());
  runtime::parallel_for(work.size() + 1, [&](std::size_t i) {
    if (i == 0) {
      center = analyzer.analyze(base).expected_reliability;
      return;
    }
    const Perturbation& p = work[i - 1];
    SensitivityEntry& entry = report[i - 1];
    entry.parameter = p.knob->name;
    entry.base_value = p.theta;
    entry.value_down = analyzer.analyze(p.down).expected_reliability;
    entry.value_up = analyzer.analyze(p.up).expected_reliability;
  });
  NVP_EXPECTS_MSG(center > 0.0, "sensitivity needs a nonzero baseline");
  for (std::size_t i = 0; i < work.size(); ++i) {
    const double dtheta = (work[i].hi - work[i].lo) / work[i].theta;
    SensitivityEntry& entry = report[i];
    entry.elasticity =
        dtheta > 0.0
            ? ((entry.value_up - entry.value_down) / center) / dtheta
            : 0.0;
  }
  std::sort(report.begin(), report.end(),
            [](const SensitivityEntry& a, const SensitivityEntry& b) {
              return a.swing() > b.swing();
            });
  return report;
}

std::string render_tornado(const std::vector<SensitivityEntry>& report) {
  util::TextTable table({"parameter", "base", "E[R] at -10%", "E[R] at +10%",
                         "elasticity"});
  for (const auto& entry : report)
    table.row({entry.parameter, util::format("%.4g", entry.base_value),
               util::format("%.6f", entry.value_down),
               util::format("%.6f", entry.value_up),
               util::format("%+.4f", entry.elasticity)});
  return table.render();
}

}  // namespace nvp::core
