#pragma once
/// \file BinaryIO.h
/// File helpers for the compact, endian-independent binary format used to
/// store block structures (paper §2.2). The heavy lifting (low-byte
/// encoding) lives in Buffer.h; this adds whole-file read/write.

#include <cstdio>
#include <string>
#include <vector>

#include "core/Buffer.h"

namespace walb {

/// Streams a file into `<path>.tmp` and moves it into place on commit(),
/// so a failed or interrupted write never replaces the previous file: a
/// reader sees either the old content or the complete new one. Every step
/// is checked, fclose included — a buffered tail lost to a full disk fails
/// the commit instead of reporting success. An uncommitted writer removes
/// its temporary when destroyed. Not a durability guarantee against power
/// loss (no fsync): it protects against the writing process dying.
///
/// commit() replaces an existing regular file by swapping the two names
/// atomically (renameat2 with RENAME_EXCHANGE) and then unlinking the old
/// content, which the swap left at `<path>.tmp`; at every instant `path`
/// names the old file or the complete new one. It falls back to rename(2)
/// when there is no target, when the target is not a regular file (a swap
/// would move a directory to `<path>.tmp`), or when the filesystem refuses
/// the swap. The swap gives up one power-loss heuristic: ext4
/// (auto_da_alloc) starts writeback of a file renamed over another, which
/// made rename-over cost 0.8–1 ms for a 0.9 MB file on a 4-vCPU Xeon VM
/// (the swap and unlink: 0.07 ms); without fsync neither path is durable,
/// so commit() does not pay for it.
class FileWriter {
public:
    explicit FileWriter(const std::string& path);
    ~FileWriter();
    FileWriter(const FileWriter&) = delete;
    FileWriter& operator=(const FileWriter&) = delete;

    /// False once opening or any write has failed.
    bool ok() const { return file_ != nullptr; }
    /// Appends n bytes; returns ok().
    bool write(const void* data, std::size_t n);
    /// Closes and moves the file into place. Returns false (leaving the
    /// previous file untouched) if any step of the write failed.
    bool commit();

private:
    void abandon();

    std::string path_, tmpPath_;
    std::FILE* file_ = nullptr;
};

/// Writes the buffer contents to a file, replacing existing content through
/// a FileWriter. Returns false on IO failure.
bool writeFile(const std::string& path, const SendBuffer& buf);

/// Reads an entire file into memory with a single read operation — mirrors
/// the paper's "one process accesses the file system and loads the entire
/// file using one single read operation". Returns false on IO failure.
bool readFile(const std::string& path, std::vector<std::uint8_t>& out);

} // namespace walb
