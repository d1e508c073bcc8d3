#pragma once

// Clocks, resource accounting and sample statistics shared by both sides of
// the grid benchmark. Every timestamp is CLOCK_MONOTONIC nanoseconds, which
// is system-wide on Linux: the supervisor and the army are separate
// processes and setup time is measured from one to the other.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gridbench {

std::int64_t mono_ns();
// CPU seconds (user + sys) of the calling thread.
double thread_cpu_s();
// CPU seconds (user + sys) of the whole process, including threads that
// have already exited — parallel_for's short-lived workers among them.
double process_cpu_s();
// Peak resident set of the process, in MiB.
double peak_rss_mb();
// CPU seconds of every thread of this process except the calling one
// (the transport's I/O loop threads when it runs more than one loop).
double other_threads_cpu_s();
// Pins the calling thread (and threads it creates later) to `cpus`.
void pin_to(const std::vector<int>& cpus);
// Threads this process has created so far (pthread_create is counted by
// an interposer in measure.cpp).
std::uint64_t threads_spawned();

// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

// Running sum/count of one span or counter.
struct Accum {
  double sum = 0.0;
  std::uint64_t count = 0;
  void add(double value) {
    sum += value;
    ++count;
  }
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// Named numeric series, the format results travel in between the army
// process and the supervisor process: one "name v1 v2 ..." line per key.
class Record {
 public:
  void set(const std::string& key, double value) { values_[key] = {value}; }
  std::vector<double>& series(const std::string& key) { return values_[key]; }
  double get(const std::string& key, double fallback = 0.0) const;
  const std::vector<double>* find(const std::string& key) const;
  const std::map<std::string, std::vector<double>>& all() const {
    return values_;
  }

  std::string serialize() const;
  static Record parse(const std::string& text);

 private:
  std::map<std::string, std::vector<double>> values_;
};

}  // namespace gridbench
