// Tests of the benchmark's own arithmetic: percentiles and self time on
// synthetic spans.  Run through `python3 wallbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"

namespace wb = wallbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

wb::Span span(const std::string& name, std::int64_t id, int lane, double t0,
              double t1, std::int64_t parent = wb::kByLane) {
  wb::Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.lane = lane;
  s.t0 = t0;
  s.t1 = t1;
  return s;
}

void test_percentiles() {
  check(std::isnan(wb::percentile({}, 50)), "empty sample is NaN");
  check(near(wb::percentile({7.0}, 99), 7.0), "single sample");
  check(near(wb::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  check(near(wb::median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  check(near(wb::percentile(v, 99), 100.0), "p99 of 1..101");
  check(near(wb::percentile(v, 0), 1.0), "p0 is the minimum");
  check(near(wb::percentile(v, 100), 101.0), "p100 is the maximum");
  check(near(wb::percentile({0.0, 10.0}, 25), 2.5), "linear interpolation");
}

void test_parents_by_lane() {
  // lane 0: step [0,10] > iteration [2,9] > force [3,5], update [5,8];
  // rebuild-phase bin [0,2] directly under step.  lane 1 never nests in
  // lane 0 even when its interval would.
  std::vector<wb::Span> s = {
      span("force", 3, 0, 3, 5),  span("step", 1, 0, 0, 10),
      span("update", 4, 0, 5, 8), span("iteration", 2, 0, 2, 9),
      span("bin", 5, 0, 0, 2),    span("other", 6, 1, 3, 4),
      span("late", 7, 0, 11, 12),
  };
  wb::assign_parents(s);
  check(s[0].parent == 2, "force under iteration");
  check(s[1].parent == wb::kRoot, "step is a root");
  check(s[2].parent == 2, "update under iteration");
  check(s[3].parent == 1, "iteration under step");
  check(s[4].parent == 1, "bin (same start as step) under step");
  check(s[5].parent == wb::kRoot, "other lane stays a root");
  check(s[6].parent == wb::kRoot, "span after the step is a root");
}

void test_explicit_parent_kept() {
  std::vector<wb::Span> s = {span("episode", 1, 100, 0, 10, wb::kRoot),
                             span("step", 2, 0, 1, 2, 1)};
  wb::assign_parents(s);
  check(s[1].parent == 1, "explicit cross-lane parent kept");
}

void test_fresh_ids() {
  // Spans added without an id (library tracer events) get distinct ids
  // that do not collide with reserved ones.
  wb::SpanLog log;
  const std::int64_t reserved = log.reserve_id();
  log.add(span("step", reserved, 0, 0, 10));
  wb::Span a, b;
  a.name = "force";
  b.name = "update";
  log.add(a);
  log.add(b);
  const auto s = log.spans();
  check(s[1].id >= 0 && s[2].id >= 0, "fresh ids assigned");
  check(s[1].id != s[2].id && s[1].id != reserved && s[2].id != reserved,
        "fresh ids are distinct");
}

void test_self_times() {
  // request [0,10]; make_job [2,3]; submit [3,4]; complete [3,10]
  // overlapping submit: covered = [2,10] -> self = 2 (the generator lag).
  std::vector<wb::Span> s = {
      span("request", 1, 0, 0, 10, wb::kRoot), span("make_job", 2, 0, 2, 3, 1),
      span("submit", 3, 0, 3, 4, 1), span("complete", 4, 0, 3, 10, 1)};
  auto self = wb::self_times(s);
  check(near(self[0], 2.0), "self time with overlapping children");
  check(near(self[1], 1.0) && near(self[3], 7.0), "leaves keep duration");

  // Children partly outside the parent are clipped; gaps are not covered.
  std::vector<wb::Span> t = {span("p", 1, 0, 0, 10, wb::kRoot),
                             span("a", 2, 0, -5, 1, 1),
                             span("b", 3, 0, 4, 6, 1),
                             span("c", 4, 0, 9, 20, 1)};
  self = wb::self_times(t);
  check(near(self[0], 10.0 - 1.0 - 2.0 - 1.0), "clipped, disjoint children");

  std::vector<wb::Span> u = {span("x", 1, 0, 0, 1)};
  bool threw = false;
  try {
    wb::self_times(u);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "unresolved parent rejected");
}

}  // namespace

int main() {
  test_percentiles();
  test_parents_by_lane();
  test_explicit_parent_kept();
  test_fresh_ids();
  test_self_times();
  std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
