#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::begin(const std::string &name, int64_t op)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    // Spans inherit the operation of their parent unless they name one.
    s.op = op >= 0 || s.parent < 0 ? op : spans_[size_t(s.parent)].op;
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::end(int id)
{
    spans_[size_t(id)].end_ns = nowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    int64_t ns = 0;
    for (const Span &s : spans_) {
        if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return double(ns) * 1e-9;
}

int64_t
Tracer::count(const std::string &name) const
{
    int64_t n = 0;
    for (const Span &s : spans_) n += s.name == name ? 1 : 0;
    return n;
}

std::map<std::string, double>
Tracer::selfByModule() const
{
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        self[i] += spans_[i].end_ns - spans_[i].start_ns;
        if (spans_[i].parent >= 0) {
            self[size_t(spans_[i].parent)] -=
                spans_[i].end_ns - spans_[i].start_ns;
        }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const std::string &n = spans_[i].name;
        out[n.substr(0, n.find('.'))] += double(self[i]) * 1e-9;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    f << "{\"traceEvents\":[";
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"op\":%lld,\"parent\":%d}}",
                      double(s.start_ns) * 1e-3,
                      double(s.end_ns - s.start_ns) * 1e-3,
                      static_cast<long long>(s.op), s.parent);
        f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\"," << buf;
    }
    f << "\n]}\n";
    return bool(f);
}

} // namespace perfbench
