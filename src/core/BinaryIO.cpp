#include "core/BinaryIO.h"

#include <sys/stat.h>

#include <cstdio>
#include <memory>

namespace walb {

namespace {
struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;
} // namespace

FileWriter::FileWriter(const std::string& path)
    : path_(path), tmpPath_(path + ".tmp"), file_(std::fopen(tmpPath_.c_str(), "wb")) {}

FileWriter::~FileWriter() { abandon(); }

void FileWriter::abandon() {
    if (!file_) return;
    std::fclose(file_);
    file_ = nullptr;
    std::remove(tmpPath_.c_str());
}

bool FileWriter::write(const void* data, std::size_t n) {
    if (file_ && n > 0 && std::fwrite(data, 1, n, file_) != n) abandon();
    return ok();
}

bool FileWriter::commit() {
    if (!file_) return false;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!closed || std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        return false;
    }
    return true;
}

bool writeFile(const std::string& path, const SendBuffer& buf) {
    FileWriter w(path);
    w.write(buf.data(), buf.size());
    return w.commit();
}

bool readFile(const std::string& path, std::vector<std::uint8_t>& out) {
    // fopen("rb") happily opens a directory on Linux; ftell then reports a
    // bogus (sometimes enormous) size and the resize below throws
    // bad_alloc. Reject anything that is not a regular file up front.
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return false;
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) return false;
    std::fseek(f.get(), 0, SEEK_END);
    const long sz = std::ftell(f.get());
    if (sz < 0) return false;
    std::fseek(f.get(), 0, SEEK_SET);
    out.resize(std::size_t(sz));
    return std::fread(out.data(), 1, out.size(), f.get()) == out.size();
}

} // namespace walb
