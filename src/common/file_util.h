// Crash-safe filesystem primitives for the checkpoint subsystem.
//
// WriteFileAtomic provides the standard temp-file + fsync + rename recipe:
// the destination path either keeps its previous content or holds the
// complete new content — a crash at any point never exposes a torn file.
#ifndef RTGCN_COMMON_FILE_UTIL_H_
#define RTGCN_COMMON_FILE_UTIL_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace rtgcn {

/// Atomically replaces `path` with `data`: writes `path`.tmp.<pid>, fsyncs
/// it, rename(2)s over `path`, then fsyncs the parent directory so the
/// rename itself is durable. On any error the temp file is removed and the
/// previous `path` (if any) is left untouched.
Status WriteFileAtomic(const std::string& path, const void* data, size_t size);
Status WriteFileAtomic(const std::string& path, const std::string& data);

/// Reads the whole file into a string (binary-exact).
Result<std::string> ReadWholeFile(const std::string& path);

/// Creates `path` and any missing parent directories (mkdir -p semantics);
/// OK if it already exists as a directory.
Status EnsureDirectory(const std::string& path);

/// Names (not full paths) of the entries in `path`, excluding "." / "..",
/// sorted ascending.
Result<std::vector<std::string>> ListDirectory(const std::string& path);

/// Deletes a file; OK if it does not exist.
Status RemoveFileIfExists(const std::string& path);

}  // namespace rtgcn

#endif  // RTGCN_COMMON_FILE_UTIL_H_
