#pragma once

/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded by the harness around its calls into each module
 * ("<module>.<call>"), all from the harness's one calling thread, so a
 * stack gives each span its parent. Spans stay in memory and are written
 * once, at the end, as Chrome trace-event JSON (Perfetto and
 * chrome://tracing open it offline). A module's self time is the summed
 * duration of its spans minus the part covered by their child spans.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1; ///< index of the enclosing span, -1 at top level
    int64_t op = -1; ///< operation id, -1 outside any operation
};

class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    int begin(const std::string &name, int64_t op);
    void end(int id);

    /** Summed duration (s) of every span named @p name. */
    double total(const std::string &name) const;
    /** Number of spans named @p name. */
    int64_t count(const std::string &name) const;
    /** Self time (s) per module (the span-name prefix before '.'). */
    std::map<std::string, double> selfByModule() const;
    size_t size() const { return spans_.size(); }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    int64_t nowNs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const std::string &name, int64_t op = -1)
        : t_(t), id_(t ? t->begin(name, op) : -1)
    {
    }
    ~Scope()
    {
        if (t_) t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

} // namespace perfbench
