#include "measure.h"

#include <dirent.h>
#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace {

std::atomic<std::uint64_t> g_threads_spawned{0};

double timespec_s(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// Counts every thread the process creates — std::thread and parallel_for
// included — then defers to the C library. The executable's definition
// interposes on the shared library's, so no library code changes.
extern "C" int pthread_create(pthread_t* __restrict thread,
                              const pthread_attr_t* __restrict attr,
                              void* (*start)(void*),
                              void* __restrict arg) noexcept {
  using Fn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                     void*);
  static const Fn real =
      reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "pthread_create"));
  if (real == nullptr) {
    std::fprintf(stderr, "gridbench: cannot resolve pthread_create\n");
    std::abort();
  }
  g_threads_spawned.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}

namespace gridbench {

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return timespec_s(ts);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return timespec_s(ts);
}

void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("gridbench: sched_setaffinity failed");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double other_threads_cpu_s() {
  const long self = syscall(SYS_gettid);
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  double total = 0.0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0.0;
  }
  while (const dirent* entry = readdir(dir)) {
    const long tid = std::atol(entry->d_name);
    if (tid <= 0 || tid == self) {
      continue;
    }
    std::ifstream stat("/proc/self/task/" + std::string(entry->d_name) +
                       "/stat");
    std::string line;
    std::getline(stat, line);
    // Fields after the parenthesised command: state is field 3, utime 14,
    // stime 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) {
      continue;
    }
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int index = 3; rest >> field; ++index) {
      if (index == 14) {
        utime = std::atof(field.c_str());
      } else if (index == 15) {
        stime = std::atof(field.c_str());
        break;
      }
    }
    total += (utime + stime) / tick;
  }
  closedir(dir);
  return total;
}

std::uint64_t threads_spawned() {
  return g_threads_spawned.load(std::memory_order_relaxed);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double Record::get(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() || it->second.empty() ? fallback : it->second[0];
}

const std::vector<double>* Record::find(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Record::serialize() const {
  std::string out;
  char number[64];
  for (const auto& [key, series] : values_) {
    out += key;
    for (const double value : series) {
      std::snprintf(number, sizeof(number), " %.17g", value);
      out += number;
    }
    out += '\n';
  }
  return out;
}

Record Record::parse(const std::string& text) {
  Record record;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) {
      continue;
    }
    std::vector<double>& series = record.values_[key];
    double value = 0.0;
    while (fields >> value) {
      series.push_back(value);
    }
  }
  return record;
}

}  // namespace gridbench
