#include "rppm/ilp_model.hh"

namespace rppm {

ReplayScratch &
replayScratch()
{
    thread_local ReplayScratch scratch;
    return scratch;
}

} // namespace rppm
