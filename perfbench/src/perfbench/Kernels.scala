package perfbench

import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.plans.PlanPieces
import repro.plans.PlanPieces.DistConfig

/** Core sub-operators timed in isolation on the driver thread, over one
  * partition's share of a workload's own data. Each kernel is warmed up, then
  * repeated for at least `MinNanos` and `MinReps`; the result is the median
  * of the repetitions in nanoseconds per input tuple.
  */
object Kernels {
  private val WarmReps = 3
  private val MinReps = 7
  private val MinNanos = 400_000_000L

  private def count(op: SubOp): Long = {
    op.open()
    var n = 0L
    while (op.next() != null) n += 1
    op.close()
    n
  }

  private def time(tr: Tracer, name: String, tuples: Long)(rep: => Unit): Double = {
    (1 to WarmReps).foreach(_ => rep)
    System.gc()
    val ns = ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (ns.size < MinReps || System.nanoTime() - t0 < MinNanos) {
      val a = System.nanoTime()
      tr.span(name, Map("tuples" -> tuples.toString)) { rep }
      ns += (System.nanoTime() - a).toDouble / tuples
    }
    Stats.median(ns.toSeq)
  }

  /** The sub-partitions the plan's second NestedMap iterates over. */
  private def localParts(rows: Array[Array[Any]], cfg: DistConfig): Array[Array[Array[Any]]] = {
    val part = PlanPieces.localPartOf(cfg, compressed = false)
    val out = Array.fill(cfg.localFan)(ArrayBuffer.empty[Array[Any]])
    rows.foreach(t => out(part(t)) += t)
    out.map(_.toArray)
  }

  def localPartitioning(tr: Tracer, rows: Array[Array[Any]], t: TupleType, cfg: DistConfig): Double = {
    val part = PlanPieces.localPartOf(cfg, compressed = false)
    val sizes = new Array[Long](cfg.localFan)
    rows.foreach(r => sizes(part(r)) += 1)
    val hist: RowVec = sizes.indices.map(b => Array[Any](b, sizes(b)))
    val histT = TupleType.of("bucket" -> Atom.IntA, "count" -> Atom.LongA)
    time(tr, "core.LocalPartitioning", rows.length) {
      count(new LocalPartitioning(new VectorSource(rows, t), new VectorSource(hist, histT),
        cfg.localFan, part))
    }
  }

  def buildProbe(tr: Tracer, r: Array[Array[Any]], rT: TupleType,
                 s: Array[Array[Any]], sT: TupleType, cfg: DistConfig): Double = {
    val rs = localParts(r, cfg); val ss = localParts(s, cfg)
    time(tr, "core.BuildProbe", r.length.toLong + s.length) {
      var i = 0
      while (i < rs.length) {
        count(new BuildProbe(new VectorSource(rs(i), rT), new VectorSource(ss(i), sT), Seq("k")))
        i += 1
      }
    }
  }

  def reduceByKey(tr: Tracer, rows: Array[Array[Any]], cfg: DistConfig): Double = {
    val ps = localParts(rows, cfg)
    val t = repro.plans.Workloads.PairType
    time(tr, "core.ReduceByKey", rows.length) {
      var i = 0
      while (i < ps.length) {
        count(new ReduceByKey(new VectorSource(ps(i), t), "k", PlanPieces.sumLongValue))
        i += 1
      }
    }
  }

  /** Filter → MapOp → Projection over one rank's lineitem scan. */
  def pipeline(tr: Tracer, rows: Array[Array[Any]], t: TupleType,
               pred: Array[Any] => Boolean, f: Array[Any] => Array[Any], fT: TupleType,
               keep: Seq[String]): Double =
    time(tr, "core.pipeline", rows.length) {
      count(new Projection(new MapOp(new FilterOp(new VectorSource(rows, t), pred), f, fT), keep))
    }
}
