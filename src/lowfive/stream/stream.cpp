#include "stream.hpp"

namespace lowfive::stream {

// --- Writer ---------------------------------------------------------------------

Writer::Writer(std::shared_ptr<DistMetadataVol> vol, std::string name)
    : vol_(std::move(vol)), name_(std::move(name)) {
    if (!vol_) throw h5::Error("lowfive: stream::Writer requires a vol");
    cfg_ = vol_->stream_begin(name_);
}

Writer::~Writer() {
    try {
        if (open_step_) file_.close_quiet(); // publishes the dangling step, best effort
        open_step_ = false;
        close();
    } catch (...) {
        // a destructor must not throw; an ill-formed stream already
        // failed elsewhere
    }
}

h5::File& Writer::begin_step() {
    if (closed_) throw h5::Error("lowfive: begin_step on a closed stream '" + name_ + "'");
    if (open_step_)
        throw h5::Error("lowfive: begin_step with a step of '" + name_
                        + "' already open (call end_step first)");
    file_      = h5::File::create(step_name(name_, current_.next()), vol_);
    open_step_ = true;
    return file_;
}

void Writer::end_step() {
    if (!open_step_) throw h5::Error("lowfive: end_step without begin_step on '" + name_ + "'");
    const StepId step = current_.next();
    file_.close(); // publish: admission (backpressure), index, serve
    open_step_ = false;
    current_   = step;
}

void Writer::close() {
    if (closed_) return;
    if (open_step_)
        throw h5::Error("lowfive: Writer::close with an open step of '" + name_
                        + "' (call end_step first)");
    closed_ = true;
    vol_->stream_end(name_);
}

// --- Reader ---------------------------------------------------------------------

Reader::Reader(std::shared_ptr<DistMetadataVol> vol, std::string name)
    : vol_(std::move(vol)), name_(std::move(name)) {
    if (!vol_) throw h5::Error("lowfive: stream::Reader requires a vol");
    vol_->stream_subscribe(name_);
}

Reader::~Reader() {
    try {
        close();
    } catch (...) {
        // a destructor must not throw
    }
}

bool Reader::next_step() {
    if (closed_) throw h5::Error("lowfive: next_step on a closed stream '" + name_ + "'");
    if (done_) return false;
    const StepId prev = current_;
    if (prev.valid()) {
        file_.close();                      // drop this rank's read handles
        vol_->stream_release(name_, prev);  // collective: unpin everywhere
        current_ = StepId{};
    }
    auto got = vol_->stream_acquire(name_, prev.next());
    if (!got) {
        done_ = true;
        return false;
    }
    current_ = *got;
    file_    = h5::File::open(step_name(name_, current_), vol_);
    return true;
}

h5::File& Reader::file() {
    if (!current_.valid() || !file_.valid())
        throw h5::Error("lowfive: Reader::file with no step held (call next_step)");
    return file_;
}

void Reader::close() {
    if (closed_) return;
    closed_ = true;
    if (current_.valid()) {
        file_.close();
        vol_->stream_release(name_, current_);
        current_ = StepId{};
    }
    vol_->stream_unsubscribe(name_);
}

} // namespace lowfive::stream
