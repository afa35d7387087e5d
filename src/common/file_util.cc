#include "common/file_util.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace rtgcn {

namespace {

std::string ParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory ", dir, " for fsync: ",
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync failed on directory ", dir, ": ",
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const void* data,
                       size_t size) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create ", tmp, ": ", std::strerror(errno));
  }
  const char* p = static_cast<const char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    const ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("write failed on ", tmp, ": ",
                             std::strerror(err));
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync failed on ", tmp, ": ", std::strerror(err));
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::IoError("close failed on ", tmp, ": ", std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::IoError("rename ", tmp, " -> ", path, " failed: ",
                           std::strerror(err));
  }
  return SyncDirectory(ParentDirectory(path));
}

Status WriteFileAtomic(const std::string& path, const std::string& data) {
  return WriteFileAtomic(path, data.data(), data.size());
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open ", path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failure on ", path);
  return content;
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  // Create each prefix in turn (mkdir -p).
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    const std::string prefix =
        pos == std::string::npos ? path : path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir ", prefix, " failed: ",
                             std::strerror(errno));
    }
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IoError(path, " exists but is not a directory");
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    return Status::IoError("cannot open directory ", path, ": ",
                           std::strerror(errno));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IoError("unlink ", path, " failed: ", std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace rtgcn
