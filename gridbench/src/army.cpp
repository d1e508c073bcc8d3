#include "army.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "auth/handshake.h"
#include "auth/identity.h"
#include "common/rng.h"
#include "core/cheating.h"
#include "grid/participant_node.h"
#include "measure.h"
#include "net/event_engine.h"
#include "net/frame.h"
#include "net/socket.h"
#include "wire/codec.h"
#include "wire/messages.h"

namespace gridbench {
namespace {

using namespace ugc;

// Connections opened but not yet challenged. Keeps the listen backlog from
// overflowing (a dropped SYN costs a one-second retransmit), so setup time
// measures the supervisor, not TCP's retry timer.
constexpr std::size_t kConnectWindow = 128;
constexpr std::uint64_t kControlToken = ~std::uint64_t{0};
// Assignments (the participant's sweep and Merkle commit) run from a queue,
// at most this much of them between two looks at the sockets: a worker
// whose challenge or verdict has arrived is served after at most one other
// worker's commit, as it would be on its own machine, instead of after the
// whole army's.
constexpr std::int64_t kComputeSliceNs = 1'000'000;

bool proof_bearing(const Message& message) {
  return std::holds_alternative<ProofResponse>(message) ||
         std::holds_alternative<BatchProofResponse>(message) ||
         std::holds_alternative<NiCbsProof>(message) ||
         std::holds_alternative<EpochProofResponse>(message);
}

bool handshake(const Message& message) {
  return std::holds_alternative<HelloChallenge>(message) ||
         std::holds_alternative<HelloProof>(message);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng rng(a ^ (b * 0x9e3779b97f4a7c15ull) ^ (c * 0xd1342543de82ef95ull));
  return rng.next();
}

std::int64_t realtime_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// recv that also returns when the kernel received the bytes
// (SO_TIMESTAMPNS, realtime clock) mapped onto CLOCK_MONOTONIC via
// `realtime_offset`. Frames are then timed from their arrival, not from
// when the army's single loop got round to them — with heavy participant
// work on that loop the two differ by whole commits.
net::IoResult receive(const net::Socket& socket, std::span<std::uint8_t> buffer,
                      std::int64_t realtime_offset, std::int64_t& arrival_ns) {
  iovec iov{buffer.data(), buffer.size()};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
  msghdr message{};
  message.msg_iov = &iov;
  message.msg_iovlen = 1;
  message.msg_control = control;
  message.msg_controllen = sizeof(control);
  const ssize_t n = ::recvmsg(socket.fd(), &message, 0);
  const std::int64_t now = mono_ns();
  arrival_ns = now;
  if (n > 0) {
    for (cmsghdr* c = CMSG_FIRSTHDR(&message); c != nullptr;
         c = CMSG_NXTHDR(&message, c)) {
      if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
        timespec ts{};
        std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
        const std::int64_t at =
            static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec -
            realtime_offset;
        if (at <= now && at > 0) {
          arrival_ns = at;
        }
      }
    }
    return {net::IoStatus::kOk, static_cast<std::size_t>(n)};
  }
  if (n == 0) {
    return {net::IoStatus::kClosed, 0};
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return {net::IoStatus::kWouldBlock, 0};
  }
  return {net::IoStatus::kError, 0};
}

// When a worker's frame for `task` arrived or left, and in which of the
// worker's jobs (every worker holds one task per job).
struct Stamp {
  std::uint64_t task = 0;
  std::int64_t at_ns = 0;
  std::size_t job = 0;
};

// Pops the stamp recorded for `task`, if any.
std::optional<Stamp> take(std::vector<Stamp>& stamps, std::uint64_t task) {
  for (auto it = stamps.begin(); it != stamps.end(); ++it) {
    if (it->task == task) {
      const Stamp stamp = *it;
      stamps.erase(it);
      return stamp;
    }
  }
  return std::nullopt;
}

// Drops every descriptor inherited from the supervisor (listener, event
// engine) except the two pipe ends, so the army holds nothing of the
// server's.
void close_inherited_fds(int keep_a, int keep_b) {
  std::vector<int> fds;
  if (DIR* dir = opendir("/proc/self/fd")) {
    const int own = dirfd(dir);
    while (const dirent* entry = readdir(dir)) {
      const int fd = std::atoi(entry->d_name);
      if (fd > 2 && fd != own && fd != keep_a && fd != keep_b) {
        fds.push_back(fd);
      }
    }
    closedir(dir);
  }
  for (const int fd : fds) {
    ::close(fd);
  }
}

std::string join(const std::vector<std::size_t>& values) {
  std::string out;
  for (const std::size_t value : values) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(value);
  }
  return out;
}

std::vector<std::size_t> split(const std::string& text) {
  std::vector<std::size_t> out;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) {
      end = text.size();
    }
    out.push_back(std::stoul(text.substr(begin, end - begin)));
    begin = end + 1;
  }
  return out;
}

class Army {
 public:
  explicit Army(const ArmyConfig& config) : config_(config) {}

  void run();
  Record results() const;

 private:
  struct Conn;

  // The Transport a worker's ParticipantNode sends through: frames land on
  // that worker's connection.
  class Link final : public Transport {
   public:
    Link(Army& army, Conn& conn) : army_(&army), conn_(&conn) {}
    void send(GridNodeId, GridNodeId, const Message& message) override {
      army_->send(*conn_, message);
    }
    const NetworkStats& stats() const override { return stats_; }
    // Node ids are per-link fictions; the army routes by socket.
    static void bind(GridNode& node) { assign_id(node, GridNodeId{1}); }

   private:
    Army* army_;
    Conn* conn_;
    NetworkStats stats_;
  };

  struct Conn {
    Conn(std::size_t index_in, auth::WorkerIdentity identity_in, bool cheater_in)
        : index(index_in), identity(std::move(identity_in)), cheater(cheater_in) {}
    std::size_t index;
    auth::WorkerIdentity identity;
    bool cheater;
    std::string agent;
    net::Socket socket;
    net::FrameDecoder decoder;
    Bytes out;
    std::size_t out_offset = 0;
    net::Interest armed = net::Interest::kNone;
    std::unique_ptr<ParticipantNode> node;
    std::unique_ptr<Link> link;
    std::uint64_t assignments = 0;  // seen so far: the current job's index
    bool open = false;
    bool challenged = false;
    std::vector<Stamp> assigned_at;
    std::vector<Stamp> proof_sent_at;
    // Frames held behind a queued assignment, with their arrival times.
    std::deque<std::pair<Message, std::int64_t>> deferred;
  };

  struct Snapshot {
    std::int64_t wall_ns = 0;
    std::int64_t wait_ns = 0;
    std::int64_t participant_ns = 0;
    double process_cpu = 0;
    std::uint64_t threads = 0;
  };

  Snapshot snapshot() const {
    return {mono_ns(), wait_ns_, participant_ns_, process_cpu_s(),
            threads_spawned()};
  }

  void open_connection(Conn& conn);
  void hang_up(Conn& conn);
  void service_control();
  void service_read(Conn& conn);
  void flush(Conn& conn);
  void sync_interest(Conn& conn);
  void handle_frame(Conn& conn, BytesView payload, std::int64_t arrival_ns);
  void deliver(Conn& conn, const Message& message, std::int64_t now);
  void run_compute_queue();
  void reset_node(Conn& conn);
  void send(Conn& conn, const Message& message);

  const ArmyConfig& config_;
  const std::int64_t realtime_offset_ = realtime_ns() - mono_ns();
  std::unique_ptr<net::EventEngine> engine_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Bytes read_scratch_ = Bytes(64 * 1024);
  Bytes encode_scratch_;
  std::deque<std::size_t> compute_queue_;  // conns with deferred frames
  std::size_t next_connect_ = 0;
  std::size_t outstanding_ = 0;  // open, not yet challenged
  std::size_t live_ = 0;         // open connections
  bool stopping_ = false;
  bool aborted_ = false;

  // Accounting.
  std::int64_t first_connect_ns_ = 0;
  std::int64_t wait_ns_ = 0;
  std::int64_t participant_ns_ = 0;
  std::optional<Snapshot> window_start_;
  std::optional<Snapshot> window_end_;
  std::uint64_t connect_failures_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t undecodable_ = 0;
  std::uint64_t tasks_assigned_ = 0;
  std::uint64_t verdicts_ = 0;
  std::uint64_t frames_wire_ = 0;
  std::uint64_t bytes_wire_ = 0;
  std::uint64_t f_evals_ = 0;
  // Latencies by job index: the tails are taken within each job, so a host
  // stall that hits a few jobs does not move the run's figure.
  std::vector<std::vector<double>> task_ms_;
  std::vector<std::vector<double>> verdict_ms_;
  // Trace-only spans around the army's library calls.
  std::vector<double> connect_us_;
  std::vector<double> connect_done_ns_;
  Accum hello_proof_us_;
  std::map<std::string, Accum> decode_us_;
  std::map<std::string, Accum> encode_us_;
  std::vector<double> commit_ms_;
  std::vector<double> prove_us_;
};

void Army::run() {
  engine_ = net::make_event_engine(net::EngineBackend::kAuto);
  ::fcntl(config_.control_fd, F_SETFL,
          ::fcntl(config_.control_fd, F_GETFL) | O_NONBLOCK);
  engine_->add(config_.control_fd, kControlToken, net::Interest::kRead);

  // Identities are the workers' own key files in a real grid: made before
  // the clock starts.
  const std::size_t workers = config_.cheater.size();
  Rng rng(config_.seed ^ 0x5eedf00dull);
  conns_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto conn = std::make_unique<Conn>(i, auth::WorkerIdentity::generate(rng),
                                       config_.cheater[i]);
    conn->agent = 'w';
    conn->agent += std::to_string(i);
    conn->link = std::make_unique<Link>(*this, *conn);
    conns_.push_back(std::move(conn));
  }
  if (config_.trace) {
    connect_done_ns_.assign(workers, 0.0);
  }

  std::vector<net::ReadyEvent> ready;
  while (!aborted_ && !(stopping_ && live_ == 0 &&
                        next_connect_ == workers)) {
    while (!stopping_ && next_connect_ < workers &&
           outstanding_ < kConnectWindow) {
      open_connection(*conns_[next_connect_++]);
    }
    if (stopping_) {
      next_connect_ = workers;
    }
    const bool more = (!stopping_ && outstanding_ < kConnectWindow &&
                       next_connect_ < workers) ||
                      !compute_queue_.empty();
    const std::int64_t before = mono_ns();
    engine_->wait(more ? 0 : 100, ready);
    wait_ns_ += mono_ns() - before;
    for (const net::ReadyEvent& event : ready) {
      if (event.token == kControlToken) {
        service_control();
        continue;
      }
      Conn& conn = *conns_[static_cast<std::size_t>(event.token)];
      if (!conn.open) {
        continue;
      }
      if (event.readable || event.error) {
        service_read(conn);
      }
      if (conn.open && event.writable) {
        flush(conn);
      }
      if (conn.open) {
        sync_interest(conn);
      }
    }
    run_compute_queue();
  }
}

void Army::run_compute_queue() {
  const std::int64_t start = mono_ns();
  while (!compute_queue_.empty() && mono_ns() - start < kComputeSliceNs) {
    Conn& conn = *conns_[compute_queue_.front()];
    compute_queue_.pop_front();
    while (conn.open && !conn.deferred.empty()) {
      const auto [message, arrival] = std::move(conn.deferred.front());
      conn.deferred.pop_front();
      deliver(conn, message, arrival);
    }
    if (conn.open) {
      flush(conn);
      sync_interest(conn);
    }
  }
}

void Army::open_connection(Conn& conn) {
  if (first_connect_ns_ == 0) {
    first_connect_ns_ = mono_ns();
  }
  const std::int64_t start = config_.trace ? mono_ns() : 0;
  try {
    conn.socket = net::tcp_connect("127.0.0.1", config_.port);
  } catch (const net::SocketError&) {
    ++connect_failures_;
    return;
  }
  if (config_.trace) {
    const std::int64_t done = mono_ns();
    connect_us_.push_back(static_cast<double>(done - start) / 1e3);
    connect_done_ns_[conn.index] = static_cast<double>(done);
  }
  const int on = 1;
  ::setsockopt(conn.socket.fd(), SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof(on));
  engine_->add(conn.socket.fd(), conn.index, net::Interest::kRead);
  conn.armed = net::Interest::kRead;
  conn.open = true;
  conn.challenged = false;
  ++live_;
  ++outstanding_;
}

void Army::hang_up(Conn& conn) {
  engine_->remove(conn.socket.fd());
  conn.socket.close();
  conn.open = false;
  --live_;
  if (!conn.challenged) {
    --outstanding_;
  }
  if (!stopping_) {
    ++lost_;  // a clean wire never drops a worker mid-run
  }
}

void Army::service_control() {
  char commands[16];
  for (;;) {
    const ssize_t n = ::read(config_.control_fd, commands, sizeof(commands));
    if (n == 0) {
      aborted_ = true;  // supervisor gone
      return;
    }
    if (n < 0) {
      return;  // EAGAIN
    }
    for (ssize_t i = 0; i < n; ++i) {
      if (commands[i] == 'S') {
        window_start_ = snapshot();
      } else if (commands[i] == 'X') {
        window_end_ = snapshot();
        stopping_ = true;
        const char ack = 'A';
        if (::write(config_.result_fd, &ack, 1) != 1) {
          aborted_ = true;
        }
      }
    }
  }
}

void Army::service_read(Conn& conn) {
  for (int round = 0; conn.open && round < 16; ++round) {
    std::int64_t arrival_ns = 0;
    const net::IoResult result =
        receive(conn.socket, std::span<std::uint8_t>(read_scratch_),
                realtime_offset_, arrival_ns);
    if (result.status == net::IoStatus::kOk) {
      try {
        conn.decoder.feed(BytesView(read_scratch_.data(), result.bytes));
        while (const auto frame = conn.decoder.next()) {
          handle_frame(conn, *frame, arrival_ns);
        }
      } catch (const net::FrameError&) {
        ++undecodable_;
        hang_up(conn);
        return;
      }
      if (result.bytes < read_scratch_.size()) {
        break;  // drained: skip the would-block read
      }
      continue;
    }
    if (result.status == net::IoStatus::kWouldBlock) {
      break;
    }
    hang_up(conn);  // EOF or reset
    return;
  }
  if (conn.open) {
    flush(conn);
  }
}

void Army::flush(Conn& conn) {
  while (conn.open && conn.out_offset < conn.out.size()) {
    const net::IoResult result = net::write_some(
        conn.socket, BytesView(conn.out).subspan(conn.out_offset));
    if (result.status == net::IoStatus::kOk) {
      if (result.bytes == 0) {
        break;
      }
      conn.out_offset += result.bytes;
      continue;
    }
    if (result.status == net::IoStatus::kWouldBlock) {
      break;
    }
    hang_up(conn);
    return;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
}

void Army::sync_interest(Conn& conn) {
  const net::Interest desired = conn.out_offset < conn.out.size()
                                    ? net::Interest::kReadWrite
                                    : net::Interest::kRead;
  if (desired != conn.armed) {
    engine_->modify(conn.socket.fd(), conn.index, desired);
    conn.armed = desired;
  }
}

void Army::handle_frame(Conn& conn, BytesView payload,
                        std::int64_t arrival_ns) {
  const std::int64_t start = config_.trace ? mono_ns() : 0;
  Message message;
  try {
    message = decode_message(payload);
  } catch (const WireError&) {
    ++undecodable_;
    return;
  }
  const std::int64_t decoded = config_.trace ? mono_ns() : 0;
  if (config_.trace) {
    decode_us_[to_string(message_type(message))].add(
        static_cast<double>(decoded - start) / 1e3);
  }
  if (const auto* challenge = std::get_if<HelloChallenge>(&message)) {
    HelloProof proof = auth::make_hello_proof(conn.identity, challenge->nonce,
                                              kGridProtocol, conn.agent);
    if (config_.trace) {
      hello_proof_us_.add(static_cast<double>(mono_ns() - decoded) / 1e3);
    }
    send(conn, Message(std::move(proof)));
    if (!conn.challenged) {
      conn.challenged = true;
      --outstanding_;
    }
    return;
  }
  ++frames_wire_;
  bytes_wire_ += payload.size() + net::kFrameHeaderSize;
  if (std::holds_alternative<TaskAssignment>(message) ||
      !conn.deferred.empty()) {
    if (conn.deferred.empty()) {
      compute_queue_.push_back(conn.index);
    }
    conn.deferred.emplace_back(std::move(message), arrival_ns);
    return;
  }
  deliver(conn, message, arrival_ns);
}

void Army::deliver(Conn& conn, const Message& message, std::int64_t now) {
  const auto* assignment = std::get_if<TaskAssignment>(&message);
  if (assignment != nullptr) {
    if (conn.node == nullptr || conn.node->active_tasks() == 0) {
      reset_node(conn);
    }
    conn.assigned_at.push_back(
        {assignment->task.value, now, conn.assignments++});
    ++tasks_assigned_;
  } else if (conn.node == nullptr) {
    return;  // traffic for a task this worker never held: dropped, as a
             // ParticipantNode drops stray frames
  }
  const std::uint64_t evals_before = conn.node->honest_evaluations();
  const std::int64_t begin = mono_ns();
  conn.node->on_message(GridNodeId{0}, message, *conn.link);
  const std::int64_t end = mono_ns();
  participant_ns_ += end - begin;
  f_evals_ += conn.node->honest_evaluations() - evals_before;
  if (config_.trace) {
    if (assignment != nullptr) {
      commit_ms_.push_back(static_cast<double>(end - begin) / 1e6);
    } else if (std::holds_alternative<SampleChallenge>(message)) {
      prove_us_.push_back(static_cast<double>(end - begin) / 1e3);
    }
  }
  if (const auto* verdict = std::get_if<Verdict>(&message)) {
    ++verdicts_;
    const auto assigned = take(conn.assigned_at, verdict->task.value);
    const auto proof = take(conn.proof_sent_at, verdict->task.value);
    if (assigned.has_value()) {
      const std::size_t job = assigned->job;
      if (task_ms_.size() <= job) {
        task_ms_.resize(job + 1);
        verdict_ms_.resize(job + 1);
      }
      task_ms_[job].push_back(static_cast<double>(now - assigned->at_ns) / 1e6);
      if (proof.has_value()) {
        verdict_ms_[job].push_back(static_cast<double>(now - proof->at_ns) /
                                   1e6);
      }
    }
  }
}

void Army::reset_node(Conn& conn) {
  // Fresh cheating randomness per task, so a cheater's guessed subset is
  // independent across jobs and the catch rate is a binomial sample.
  const std::uint64_t seed = mix(config_.seed, conn.index, conn.assignments);
  ParticipantNode::Options options;
  if (conn.cheater) {
    options.policy = make_semi_honest_cheater({0.5, 0.0, seed});
  }
  options.conduct_seed = seed;
  conn.node = std::make_unique<ParticipantNode>(std::move(options));
  Link::bind(*conn.node);
}

void Army::send(Conn& conn, const Message& message) {
  const std::int64_t start = config_.trace ? mono_ns() : 0;
  encode_message_into(message, encode_scratch_);
  if (config_.trace) {
    encode_us_[to_string(message_type(message))].add(
        static_cast<double>(mono_ns() - start) / 1e3);
  }
  net::append_frame(encode_scratch_, conn.out);
  if (handshake(message)) {
    return;
  }
  ++frames_wire_;
  bytes_wire_ += encode_scratch_.size() + net::kFrameHeaderSize;
  if (proof_bearing(message)) {
    const std::uint64_t task = task_of(message).value;
    take(conn.proof_sent_at, task);
    conn.proof_sent_at.push_back({task, mono_ns(), 0});
  }
}

Record Army::results() const {
  Record record;
  record.set("first_connect_ns", static_cast<double>(first_connect_ns_));
  record.set("connect_failures", static_cast<double>(connect_failures_));
  record.set("lost", static_cast<double>(lost_));
  record.set("undecodable", static_cast<double>(undecodable_));
  record.set("tasks_assigned", static_cast<double>(tasks_assigned_));
  record.set("verdicts", static_cast<double>(verdicts_));
  record.set("frames_wire", static_cast<double>(frames_wire_));
  record.set("bytes_wire", static_cast<double>(bytes_wire_));
  record.set("f_evals", static_cast<double>(f_evals_));
  if (window_start_ && window_end_) {
    const Snapshot& a = *window_start_;
    const Snapshot& b = *window_end_;
    record.set("window_wall_s", static_cast<double>(b.wall_ns - a.wall_ns) / 1e9);
    record.set("window_busy_s",
               static_cast<double>((b.wall_ns - a.wall_ns) -
                                   (b.wait_ns - a.wait_ns)) / 1e9);
    record.set("window_participant_s",
               static_cast<double>(b.participant_ns - a.participant_ns) / 1e9);
    record.set("window_cpu_s", b.process_cpu - a.process_cpu);
    record.set("window_threads_spawned",
               static_cast<double>(b.threads - a.threads));
  }
  // Per job: the median and p90 of its task and verdict latencies.
  for (std::size_t job = 0; job < task_ms_.size(); ++job) {
    for (const auto& [name, samples] :
         {std::pair{"task", &task_ms_[job]}, {"verdict", &verdict_ms_[job]}}) {
      if (samples->empty()) {
        continue;
      }
      record.series(std::string("job_") + name + "_p50_ms")
          .push_back(percentile(*samples, 0.50));
      record.series(std::string("job_") + name + "_p90_ms")
          .push_back(percentile(*samples, 0.90));
      record.series(std::string(name) + "_samples").push_back(
          static_cast<double>(samples->size()));
    }
  }
  if (config_.trace) {
    record.series("connect_us") = connect_us_;
    record.series("connect_done_ns") = connect_done_ns_;
    record.series("hello_proof_us") = {hello_proof_us_.sum,
                                       static_cast<double>(hello_proof_us_.count)};
    for (const auto& [kind, accum] : decode_us_) {
      record.series("decode_us." + kind) = {accum.sum,
                                            static_cast<double>(accum.count)};
    }
    for (const auto& [kind, accum] : encode_us_) {
      record.series("encode_us." + kind) = {accum.sum,
                                            static_cast<double>(accum.count)};
    }
    record.series("commit_ms") = commit_ms_;
    record.series("prove_us") = prove_us_;
  }
  return record;
}

}  // namespace

std::vector<std::string> army_arguments(const ArmyConfig& config) {
  std::vector<std::size_t> cheaters;
  for (std::size_t i = 0; i < config.cheater.size(); ++i) {
    if (config.cheater[i]) {
      cheaters.push_back(i);
    }
  }
  const std::vector<std::size_t> cpus(config.cpus.begin(), config.cpus.end());
  return {"--port", std::to_string(config.port),
          "--workers", std::to_string(config.cheater.size()),
          "--cheaters", join(cheaters),
          "--seed", std::to_string(config.seed),
          "--trace", config.trace ? "1" : "0",
          "--cpus", join(cpus),
          "--control-fd", std::to_string(config.control_fd),
          "--result-fd", std::to_string(config.result_fd)};
}

ArmyConfig parse_army_arguments(const std::vector<std::string>& arguments) {
  ArmyConfig config;
  std::vector<std::size_t> cheaters;
  if (arguments.size() % 2 != 0) {
    throw std::invalid_argument("army: flags come in pairs");
  }
  for (std::size_t i = 0; i < arguments.size(); i += 2) {
    const std::string& flag = arguments[i];
    const std::string& value = arguments[i + 1];
    if (flag == "--port") {
      config.port = static_cast<std::uint16_t>(std::stoul(value));
    } else if (flag == "--workers") {
      config.cheater.assign(std::stoul(value), false);
    } else if (flag == "--cheaters") {
      cheaters = split(value);
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--trace") {
      config.trace = value != "0";
    } else if (flag == "--cpus") {
      for (const std::size_t cpu : split(value)) {
        config.cpus.push_back(static_cast<int>(cpu));
      }
    } else if (flag == "--control-fd") {
      config.control_fd = std::stoi(value);
    } else if (flag == "--result-fd") {
      config.result_fd = std::stoi(value);
    } else {
      throw std::invalid_argument("army: unknown flag " + flag);
    }
  }
  for (const std::size_t index : cheaters) {
    if (index >= config.cheater.size()) {
      throw std::invalid_argument("army: cheater index out of range");
    }
    config.cheater[index] = true;
  }
  if (config.port == 0 || config.control_fd < 0 || config.result_fd < 0) {
    throw std::invalid_argument("army: --port and both pipe fds are required");
  }
  return config;
}

int run_army(const ArmyConfig& config) {
  // Killed with the supervisor; a supervisor already gone shows as EOF on
  // the control pipe.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  close_inherited_fds(config.control_fd, config.result_fd);
  if (!config.cpus.empty()) {
    pin_to(config.cpus);
  }
  Army army(config);
  try {
    army.run();
  } catch (const std::exception& error) {
    const std::string text = std::string("army_error 1\n");
    (void)!::write(config.result_fd, text.data(), text.size());
    std::fprintf(stderr, "gridbench army: %s\n", error.what());
    return 1;
  }
  const std::string text = army.results().serialize();
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n = ::write(config.result_fd, text.data() + written,
                              text.size() - written);
    if (n <= 0) {
      return 1;
    }
    written += static_cast<std::size_t>(n);
  }
  return 0;
}

}  // namespace gridbench
