package repro.mpi

import scala.collection.mutable

/** Per-rank named wall-time accumulators, used to reproduce the paper's
  * Fig 6 phase breakdown (localHistogram / globalHistogram /
  * networkPartition / localPartition / buildProbe). Single-writer (the
  * owning rank thread); the driver reads after the runtime joins.
  */
final class PhaseTimer {
  private val acc = mutable.LinkedHashMap.empty[String, Long]

  def add(phase: String, nanos: Long): Unit =
    acc.update(phase, acc.getOrElse(phase, 0L) + nanos)

  def time[T](phase: String)(f: => T): T = {
    val t0 = System.nanoTime()
    try f
    finally add(phase, System.nanoTime() - t0)
  }

  def nanos(phase: String): Long = acc.getOrElse(phase, 0L)
  def phases: Vector[String] = acc.keys.toVector
  def snapshot: Map[String, Long] = acc.toMap
}

object PhaseTimer {
  /** Critical-path aggregation across ranks: max per phase (the paper's
    * breakdown reports the slowest process per phase).
    */
  def maxAcross(timers: Seq[PhaseTimer]): Map[String, Long] = {
    val keys = timers.flatMap(_.phases).distinct
    keys.map(k => k -> timers.map(_.nanos(k)).max).toMap
  }
}
