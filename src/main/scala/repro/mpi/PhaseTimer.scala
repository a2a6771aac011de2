package repro.mpi

/** The phases of the paper's Fig 6 breakdown, plus GROUP BY's aggregate;
  * their names are the metric names the benches report.
  */
object Phase extends Enumeration {
  val localHistogram, globalHistogram, networkPartition, localPartition, buildProbe, aggregate = Value
}

/** Per-rank exclusive wall time per [[Phase]]: a span pauses the span it
  * runs inside, so a rank's phases never add up to more than its wall time.
  * Single-writer (the owning rank thread); the driver reads after the
  * runtime joins.
  */
final class PhaseTimer {
  private val acc = new Array[Long](Phase.maxId)
  private var current = -1 // id of the running phase, -1 outside every span
  private var mark = 0L    // when `current` was last charged

  def time[T](phase: Phase.Value)(f: => T): T = {
    val outer = current
    switchTo(phase.id)
    try f finally switchTo(outer)
  }

  private def switchTo(id: Int): Unit = {
    val now = System.nanoTime()
    if (current >= 0) acc(current) += now - mark
    current = id
    mark = now
  }

  def nanos(phase: Phase.Value): Long = acc(phase.id)
  def nanos(phase: String): Long = nanos(Phase.withName(phase))
  /** The names of the phases charged so far, in phase order. */
  def phases: Vector[String] = Phase.values.toVector.filter(nanos(_) > 0).map(_.toString)
  def snapshot: Map[String, Long] = phases.map(p => p -> nanos(p)).toMap
}
