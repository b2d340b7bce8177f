# Snapshot-size gate for a durable directory (DESIGN.md §11):
#
#   cmake -DDIR=durable_dir -P snapshot_size.cmake
#
# A snapshot holds fixed-size state (seq, RNG, record-id watermark, route
# cursor, EWMAs, shed cap, metrics registry) plus the timeline; the
# journal holds every record. The timeline grows with steps x series, not
# with records, and every snapshot carries all of it, so the gate allows
# one timeline.bin (the newest snapshot's series, written beside it) per
# kept snapshot and bounds everything else to a tenth of journal.bin. A
# snapshot that re-serializes the store, panel or lineage ledger (each
# several times the journal's bytes per record) fails it at any scale.
if(NOT EXISTS "${DIR}/journal.bin")
  message(FATAL_ERROR "${DIR}/journal.bin is missing")
endif()
file(SIZE "${DIR}/journal.bin" journal)
set(timeline 0)
if(EXISTS "${DIR}/timeline.bin")
  file(SIZE "${DIR}/timeline.bin" timeline)
endif()
file(GLOB snapshots "${DIR}/snap-*.bin")
list(LENGTH snapshots count)
if(count EQUAL 0)
  message(FATAL_ERROR "no snap-*.bin in ${DIR}")
endif()
set(total 0)
foreach(snapshot ${snapshots})
  file(SIZE "${snapshot}" size)
  math(EXPR total "${total} + ${size}")
endforeach()
math(EXPR bound "${journal} / 10 + ${count} * ${timeline}")
message("${count} snapshots: ${total} bytes; journal ${journal}, "
        "timeline ${timeline}; bound ${bound}")
if(total GREATER bound)
  message(FATAL_ERROR "snapshots total ${total} bytes, above the bound "
          "${bound} (journal/10 + ${count} x timeline.bin)")
endif()
