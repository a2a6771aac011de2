package perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import repro.mpi.{MpiContext, MpiExecutor, NetStats, PhaseTimer}

/** What one run collects: query samples (untraced and traced kept apart),
  * the correctness tally, and per-operation values of the layer metrics
  * (collected only by traced operations).
  */
final class Recorder {
  var attempted = 0L
  var failed = 0L
  val queries = ArrayBuffer.empty[Sample]
  val tracedQueries = ArrayBuffer.empty[Sample]
  val monolith = ArrayBuffer.empty[Sample]
  val layers = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]

  def query(s: Sample, traced: Boolean): Unit =
    (if (traced) tracedQueries else queries) += s

  def layer(name: String, v: Double): Unit =
    layers.getOrElseUpdate(name, ArrayBuffer.empty) += v

  /** One attempted answer: wrong or throwing counts as failed. */
  def check(what: String)(ok: => Boolean): Unit = {
    attempted += 1
    val good =
      try ok
      catch { case e: Throwable => Console.err.println(s"check $what threw: $e"); false }
    if (!good) { failed += 1; Console.err.println(s"wrong answer: $what") }
  }

  def fail(what: String, e: Throwable): Unit = {
    attempted += 1
    failed += 1
    Console.err.println(s"query $what failed: $e")
  }
}

/** Reads the per-rank timers and network counters of finished executions
  * from outside the program: `MpiExecutor.lastRuntime.lastContexts` for
  * modular plans, `MonolithicRadixJoin.Result` for the monolith.
  */
object Layers {
  val MpiPhases: Seq[String] = Seq("localHistogram", "globalHistogram",
    "networkPartition", "localPartition", "buildProbe", "aggregate")
  val MonolithPhases: Seq[String] = MpiPhases.take(5)

  final case class Ranks(timers: Seq[PhaseTimer], stats: Seq[NetStats])
  def ofContexts(cs: Seq[MpiContext]): Ranks = Ranks(cs.map(_.timer), cs.map(_.stats))

  /** Record `mpi.*` values for one operation made of one or more executions
    * (a TPC-H pass runs four): per phase the sum over executions of the
    * slowest rank, skew as max/mean of per-rank phase totals, and the
    * network counters summed over ranks.
    */
  def recordMpi(rec: Recorder, runs: Seq[Ranks]): Unit = {
    MpiPhases.foreach { p =>
      rec.layer(s"mpi.phase.${p}_ms", runs.map(r => r.timers.map(_.nanos(p)).max).sum / 1e6)
    }
    val nRanks = runs.head.timers.size
    val totals = (0 until nRanks).map(i => runs.map(r => r.timers(i).snapshot.values.sum).sum.toDouble)
    if (totals.sum > 0) rec.layer("mpi.phase_skew", totals.max / Stats.mean(totals))
    val stats = runs.flatMap(_.stats)
    rec.layer("mpi.bytes_cross", stats.map(_.bytesCross).sum.toDouble)
    rec.layer("mpi.bytes_local", stats.map(_.bytesLocal).sum.toDouble)
    rec.layer("mpi.msgs", stats.map(_.msgs).sum.toDouble)
    rec.layer("mpi.sim_wire_ms", stats.map(_.simulatedWireNanos).sum / 1e6)
  }

  def recordGc(rec: Recorder, s: Sample): Unit = {
    rec.layer("jvm.gc_ms_per_query", s.gcMs.toDouble)
    rec.layer("jvm.gc_count_per_query", s.gcCount.toDouble)
  }

  /** Everything one traced `driver(...)` query yields: its ranks' timers and
    * counters, its `plan.build` and `plan.execute` spans, its GC.
    */
  def recordQuery(rec: Recorder, tr: Tracer, exec: MpiExecutor, s: Sample): Unit = {
    val ranks = ofContexts(exec.lastRuntime.lastContexts)
    recordMpi(rec, Seq(ranks))
    attachRanks(tr, "plan.execute", "mpi", ranks.timers)
    spanMs(tr, "plan.build").foreach(rec.layer("plans.build_ms", _))
    spanMs(tr, "plan.execute").foreach(rec.layer("plans.execute_ms", _))
    recordGc(rec, s)
  }

  def recordMonolith(rec: Recorder, timers: Seq[PhaseTimer]): Unit =
    MonolithPhases.foreach { p =>
      rec.layer(s"monolith.phase.${p}_ms", timers.map(_.nanos(p)).max / 1e6)
    }

  /** Attach per-rank phase durations under the span `parentName` that just
    * ended: one span per rank covering the parent, its phases laid end to end
    * from the parent's start (the timers give durations, not start times).
    */
  def attachRanks(tr: Tracer, parentName: String, prefix: String, timers: Seq[PhaseTimer]): Unit =
    if (tr.enabled) tr.last(parentName).foreach { parent =>
      timers.zipWithIndex.foreach { case (t, r) =>
        val rid = tr.attach(s"$prefix.rank", parent.id, parent.start, parent.end,
          Map("rank" -> r.toString))
        var at = parent.start
        t.phases.foreach { p =>
          tr.attach(s"$prefix.$p", rid, at, at + t.nanos(p), Map("rank" -> r.toString))
          at += t.nanos(p)
        }
      }
    }

  def spanMs(tr: Tracer, name: String): Option[Double] =
    if (!tr.enabled) None else tr.last(name).map(s => (s.end - s.start) / 1e6)
}

/** Order-independent checksum of long tuples: the wrapping sum of a mixed
  * hash per tuple, so any missing, duplicated or altered row changes it.
  */
object Checksum {
  private def mix(x0: Long): Long = {
    var x = x0
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }
  def row(a: Long, b: Long, c: Long): Long =
    mix(a * 0x9e3779b97f4a7c15L + mix(b + 0x632be59bd9b4e019L) + mix(c ^ 0x2545f4914f6cdd1dL))
  def row(a: Long, b: Long): Long = row(a, b, 0L)
}
