#include "oracles/fault_fs.hpp"

#include <type_traits>
#include <utility>

namespace thermo::persist {

namespace {

/// Decorates a WritableFile so appends/syncs on an open handle are
/// charged (and faulted) like any other operation. close() is exempt:
/// it is called from destructors during crash unwinding, where a throw
/// would terminate the process for real.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultFs& fs, std::unique_ptr<WritableFile> base)
      : fs_(fs), base_(std::move(base)) {}

  ~FaultWritableFile() override { close(); }

  void append(std::string_view bytes) override;
  void sync() override {
    const bool before = fs_.crashed();
    fs_.charge(false);
    base_->sync();
    if (!before && fs_.crashed()) {
      throw CrashError("injected crash after sync");
    }
  }
  void close() override { base_->close(); }

 private:
  FaultFs& fs_;
  std::unique_ptr<WritableFile> base_;
};

void FaultWritableFile::append(std::string_view bytes) {
  const bool before = fs_.crashed();
  const bool treat = fs_.charge(true);
  if (!treat) {
    base_->append(bytes);
    if (!before && fs_.crashed()) {
      throw CrashError("injected crash after append");
    }
    return;
  }
  // Short/torn write: a seeded prefix of the frame reaches "disk"; a
  // torn write additionally smears 1..16 seeded garbage bytes after it
  // (a sector that was mid-rewrite when the power went). Then the crash.
  Rng& rng = fs_.torn_rng();
  std::string partial{bytes.substr(
      0, static_cast<std::size_t>(rng.uniform_index(bytes.size() + 1)))};
  if (fs_.plan().kind == FaultKind::kTornWrite) {
    const std::size_t garbage = 1 + static_cast<std::size_t>(rng.uniform_index(16));
    for (std::size_t i = 0; i < garbage; ++i) {
      partial.push_back(static_cast<char>(rng.next_u64() & 0xff));
    }
  }
  if (!partial.empty()) base_->append(partial);
  throw CrashError(fs_.plan().kind == FaultKind::kTornWrite
                       ? "injected crash: torn write"
                       : "injected crash: short write");
}

}  // namespace

FaultFs::FaultFs(Fs& base, FaultPlan plan)
    : base_(base), plan_(plan), rng_(plan.seed) {}

bool FaultFs::charge(bool is_append) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_) throw CrashError("filesystem crashed (op after crash point)");
  const std::size_t op = ops_++;
  if (op != plan_.after_ops) return false;
  switch (plan_.kind) {
    case FaultKind::kFailOp:
      // Transient failure: this op fails, the filesystem lives on.
      throw IoError("injected I/O failure at op " + std::to_string(op));
    case FaultKind::kCrashBefore:
      crashed_ = true;
      throw CrashError("injected crash before op " + std::to_string(op));
    case FaultKind::kCrashAfter:
      crashed_ = true;
      return false;  // the wrapper performs the op, compares crashed()
                     // before/after, and throws
    case FaultKind::kShortWrite:
    case FaultKind::kTornWrite:
      crashed_ = true;
      if (is_append) return true;  // the append applies the treatment
      throw CrashError("injected crash before op " + std::to_string(op));
  }
  return false;
}

namespace {

/// Runs one base operation as one charged op. kCrashAfter needs "do the
/// op, then die": charge() cannot run the op, so in that case it only
/// sets crashed(), and the throw comes here after the base call.
template <typename Op>
auto charged(FaultFs& fs, Op op) {
  const bool armed = !fs.crashed();
  fs.charge(false);
  const auto crash_if_pending = [&] {
    if (armed && fs.crashed()) throw CrashError("injected crash after op");
  };
  if constexpr (std::is_void_v<decltype(op())>) {
    op();
    crash_if_pending();
  } else {
    auto result = op();
    crash_if_pending();
    return result;
  }
}

}  // namespace

std::unique_ptr<WritableFile> FaultFs::open_append(const std::string& path) {
  return charged(*this, [&]() -> std::unique_ptr<WritableFile> {
    return std::make_unique<FaultWritableFile>(*this, base_.open_append(path));
  });
}

std::string FaultFs::read_file(const std::string& path) {
  return charged(*this, [&] { return base_.read_file(path); });
}

std::string FaultFs::read_range(const std::string& path, std::uint64_t offset,
                                std::size_t length) {
  return charged(*this, [&] { return base_.read_range(path, offset, length); });
}

std::vector<std::string> FaultFs::list_dir(const std::string& dir) {
  return charged(*this, [&] { return base_.list_dir(dir); });
}

void FaultFs::create_directories(const std::string& dir) {
  charged(*this, [&] { base_.create_directories(dir); });
}

bool FaultFs::exists(const std::string& path) {
  return charged(*this, [&] { return base_.exists(path); });
}

void FaultFs::rename_file(const std::string& from, const std::string& to) {
  charged(*this, [&] { base_.rename_file(from, to); });
}

void FaultFs::remove_file(const std::string& path) {
  charged(*this, [&] { base_.remove_file(path); });
}

}  // namespace thermo::persist
