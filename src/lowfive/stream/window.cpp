#include "window.hpp"

#include <check/race.hpp>
#include <h5/dataspace.hpp> // h5::Error

namespace lowfive::stream {

bool StepWindow::can_admit() const {
    L5_SHARED_READ(this, "window", "window/can_admit");
    if (steps_.size() < cfg_.window) return true;
    for (const auto& [step, info] : steps_)
        if (consumed(info)) return true;
    return false;
}

std::vector<StepWindow::Evicted> StepWindow::make_room() {
    L5_SHARED_WRITE(this, "window", "window/make_room");
    std::vector<Evicted> out;
    while (steps_.size() >= cfg_.window) {
        // oldest consumed step first: a clean eviction under any policy
        auto victim = steps_.end();
        for (auto it = steps_.begin(); it != steps_.end(); ++it)
            if (consumed(it->second)) {
                victim = it;
                break;
            }
        if (victim == steps_.end() && cfg_.policy != StepPolicy::Block) {
            // drop/latest_only: sacrifice the oldest unheld step; when
            // every step is pinned, admit anyway (overcommit) — the
            // producer must never wait on a slow consumer
            for (auto it = steps_.begin(); it != steps_.end(); ++it)
                if (it->second.refs == 0) {
                    victim = it;
                    break;
                }
        }
        if (victim == steps_.end()) break;
        out.push_back({victim->first, never_read(victim->second)});
        steps_.erase(victim);
    }
    return out;
}

std::vector<StepWindow::Evicted> StepWindow::reap() {
    L5_SHARED_WRITE(this, "window", "window/reap");
    std::vector<Evicted> out;
    for (auto it = steps_.begin(); it != steps_.end();) {
        if (consumed(it->second)) {
            out.push_back({it->first, never_read(it->second)});
            it = steps_.erase(it);
        } else {
            ++it;
        }
    }
    if (cfg_.policy != StepPolicy::Block)
        for (auto it = steps_.begin(); it != steps_.end() && steps_.size() > cfg_.window;) {
            if (it->second.refs == 0) {
                out.push_back({it->first, never_read(it->second)});
                it = steps_.erase(it);
            } else {
                ++it;
            }
        }
    return out;
}

void StepWindow::publish(StepId step, std::uint64_t publish_ns) {
    L5_SHARED_WRITE(this, "window", "window/publish");
    if (!step.valid()) throw h5::Error("lowfive: publish of an invalid step");
    if (step <= last_published_)
        throw h5::Error("lowfive: stream steps must be published in strictly increasing order");
    if (eos_) throw h5::Error("lowfive: publish after end of stream");
    StepInfo info;
    info.publish_ns = publish_ns;
    steps_.emplace(step, info);
    last_published_ = step;
}

StepWindow::Acquire StepWindow::acquire(StepId min) {
    L5_SHARED_WRITE(this, "window", "window/acquire");
    Acquire r;
    auto    it = steps_.lower_bound(min);
    if (it == steps_.end()) {
        r.status = eos_ ? Acquire::Status::eos : Acquire::Status::retry_later;
        return r;
    }
    if (cfg_.policy == StepPolicy::LatestOnly) it = std::prev(steps_.end()); // newest step
    ++it->second.refs;
    ++it->second.acquires;
    r.status = Acquire::Status::granted;
    r.step   = it->first;
    return r;
}

bool StepWindow::pin(StepId step) {
    L5_SHARED_WRITE(this, "window", "window/pin");
    auto it = steps_.find(step);
    if (it == steps_.end()) return false;
    ++it->second.refs;
    ++it->second.acquires;
    return true;
}

std::optional<StepWindow::Released> StepWindow::release(StepId step) {
    L5_SHARED_WRITE(this, "window", "window/release");
    auto it = steps_.find(step);
    if (it == steps_.end() || it->second.refs == 0) return std::nullopt;
    --it->second.refs;
    Released r;
    r.publish_ns = it->second.publish_ns;
    if (it->second.refs == 0 && !it->second.drain_counted) {
        it->second.drain_counted = true;
        r.first_drain            = true;
    }
    return r;
}

bool StepWindow::drained() const {
    L5_SHARED_READ(this, "window", "window/drained");
    if (!eos_ || dones_ < expected_) return false;
    for (const auto& [step, info] : steps_)
        if (info.refs != 0) return false;
    return true;
}

std::vector<StepWindow::Evicted> StepWindow::clear() {
    L5_SHARED_WRITE(this, "window", "window/clear");
    std::vector<Evicted> out;
    out.reserve(steps_.size());
    for (const auto& [step, info] : steps_)
        out.push_back({step, never_read(info)});
    steps_.clear();
    return out;
}

} // namespace lowfive::stream
