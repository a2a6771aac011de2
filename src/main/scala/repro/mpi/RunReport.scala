package repro.mpi

/** What the ranks of one execution measured: each rank's phase timer and
  * network counters, in rank order, and the summaries the benches read.
  */
final case class RunReport(timers: Vector[PhaseTimer], stats: Vector[NetStats]) {
  require(timers.nonEmpty && timers.size == stats.size)

  /** The slowest rank's nanos in `phase` (the paper's per-phase breakdown). */
  def slowestNanos(phase: Phase.Value): Long = timers.map(_.nanos(phase)).max

  /** The largest sum of phases over the ranks: at most the query's wall time. */
  def busiestRankNanos: Long = timers.map(t => Phase.values.toSeq.map(t.nanos).sum).max

  /** Bytes put by all ranks, within and across machines. */
  def bytesPut: Long = stats.map(s => s.bytesCross + s.bytesLocal).sum
}
