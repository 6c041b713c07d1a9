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

/// Streams a file into `<path>.tmp` and renames it over `path` on commit(),
/// so a failed or interrupted write never replaces the previous file: a
/// reader sees either the old content or the complete new one. Every step
/// is checked, fclose included — a buffered tail lost to a full disk fails
/// the commit instead of reporting success. An uncommitted writer removes
/// its temporary when destroyed. Not a durability guarantee against power
/// loss (no fsync): it protects against the writing process dying.
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
    /// Closes and renames into place. Returns false (leaving the previous
    /// file untouched) if any step of the write failed.
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
