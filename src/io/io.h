// Umbrella header of the I/O subsystem: versioned, CRC-checked gauge
// configuration files (saved from one rank, or gathered to rank 0 from a
// decomposition) and Markov-chain checkpoint / restart.  Normative
// on-disk spec: docs/FORMAT.md.
#pragma once

#include "io/checkpoint.h"  // IWYU pragma: export
#include "io/crc32.h"       // IWYU pragma: export
#include "io/dist_io.h"     // IWYU pragma: export
#include "io/format.h"      // IWYU pragma: export
#include "io/gauge_io.h"    // IWYU pragma: export
