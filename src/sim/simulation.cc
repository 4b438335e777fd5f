#include "src/sim/simulation.h"

namespace achilles {

// The simulation core is a header template (the queue engine is a compile-time
// parameter); instantiate both engines once here so every other translation unit links
// against these.
template class SimulationT<HeapQueue>;
template class SimulationT<CalendarQueue>;

}  // namespace achilles
