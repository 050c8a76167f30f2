#include "persist/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace thermo::persist {

namespace {

namespace fs = std::filesystem;

/// cstdio append handle. Durability contract: append() lands bytes in
/// the stdio buffer, sync() pushes them through fflush + fsync; close()
/// flushes (so a same-process reader sees the bytes) but deliberately
/// does NOT fsync — SegmentStore ties acknowledgement to sync() alone.
class RealWritableFile final : public WritableFile {
 public:
  RealWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~RealWritableFile() override {
    try {
      close();
    } catch (const Error&) {
      // Destruction models process exit: a flush failure here has no one
      // left to report to.
    }
  }

  void append(std::string_view bytes) override {
    THERMO_REQUIRE(file_ != nullptr, "append on a closed file");
    if (bytes.empty()) return;
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), file_);
    if (written != bytes.size()) {
      throw IoError("short write to '" + path_ + "' (" +
                    std::to_string(written) + " of " +
                    std::to_string(bytes.size()) + " bytes)");
    }
  }

  void sync() override {
    THERMO_REQUIRE(file_ != nullptr, "sync on a closed file");
    if (std::fflush(file_) != 0) {
      throw IoError("flush failed for '" + path_ + "'");
    }
    if (::fsync(::fileno(file_)) != 0) {
      throw IoError("fsync failed for '" + path_ + "'");
    }
  }

  void close() override {
    if (file_ == nullptr) return;
    std::FILE* file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0) {
      throw IoError("close failed for '" + path_ + "'");
    }
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class RealFs final : public Fs {
 public:
  std::unique_ptr<WritableFile> open_append(const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "ab");
    if (file == nullptr) {
      throw IoError("cannot open '" + path + "' for append");
    }
    return std::make_unique<RealWritableFile>(file, path);
  }

  std::string read_file(const std::string& path) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot read '" + path + "'");
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) throw IoError("read failed for '" + path + "'");
    return bytes;
  }

  std::string read_range(const std::string& path, std::uint64_t offset,
                         std::size_t length) override {
    // One open/pread/close per record read: no stream object to build,
    // and pread carries its own offset, so concurrent readers of one
    // segment share nothing.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw IoError("cannot read '" + path + "'");
    std::string bytes(length, '\0');
    std::size_t done = 0;
    while (done < length) {
      const ssize_t got = ::pread(fd, bytes.data() + done, length - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;  // end of file or a read error: a short range
      done += static_cast<std::size_t>(got);
    }
    ::close(fd);
    if (done != length) {
      throw IoError("range [" + std::to_string(offset) + ", +" +
                    std::to_string(length) + ") overruns '" + path + "'");
    }
    return bytes;
  }

  std::vector<std::string> list_dir(const std::string& dir) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file()) {
        names.push_back(entry.path().filename().string());
      }
    }
    // A missing directory is an empty listing, not an error: opening a
    // store that does not exist yet must be expressible.
    std::sort(names.begin(), names.end());
    return names;
  }

  void create_directories(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      throw IoError("cannot create directory '" + dir + "': " + ec.message());
    }
  }

  bool exists(const std::string& path) override {
    std::error_code ec;
    return fs::exists(path, ec);
  }

  void rename_file(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) {
      throw IoError("cannot rename '" + from + "' to '" + to +
                    "': " + ec.message());
    }
  }

  void remove_file(const std::string& path) override {
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) {
      throw IoError("cannot remove '" + path + "'" +
                    (ec ? ": " + ec.message() : std::string()));
    }
  }
};

}  // namespace

Fs& real_fs() {
  static RealFs instance;
  return instance;
}

}  // namespace thermo::persist
