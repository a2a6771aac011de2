package perfbench

import repro.core._
import repro.monolith.MonolithicRadixJoin
import repro.mpi.NetConfig
import repro.plans.{GroupByPlan, RadixJoinPlan, Workloads => Gen}
import repro.plans.PlanPieces.DistConfig
import repro.plans.RadixJoinPlan.JoinSpec

/** One benchmark workload. The harness times `prepare` (repeated) and the
  * warm-up as set-up, computes the expected answers once with `oracle`, then
  * calls `operate` in a closed loop: one driver thread, the next query issued
  * when the previous one has finished.
  */
trait Workload {
  def name: String
  def sizes: Seq[(String, Long)]
  /** Base-relation tuples one operation reads. */
  def tuplesPerOp: Long
  /** Set-up done once per run before `prepare` (e.g. starting a session). */
  def open(): Unit = ()
  /** Generate, shard and load the inputs. */
  def prepare(): Unit
  /** How often set-up runs `prepare`; `setup_s` counts the median. */
  def prepareReps: Int = 3
  /** Untimed operations that let the JIT compile the hot paths first. A
    * fixed count, so `setup_s` times the same work in every run, chosen from
    * trial runs: by this count the JIT had gone quiet (three operations in a
    * row each spent at most 2 % of their wall time compiling).
    */
  def warmupOps: Int
  /** Whether each timed query starts from a freshly collected heap: worth
    * its cost where a query fills the young generation.
    */
  def collectBeforeQuery: Boolean = true
  /** Compute expected answers; `wrong` deliberately corrupts them. */
  def oracle(wrong: Boolean): Unit
  def operate(rec: Recorder, tr: Tracer): Unit
  /** Core operators timed alone on one thread: metric name → ns per tuple. */
  def kernels(tr: Tracer): Seq[(String, Double)]
  def close(): Unit = ()
}

/** Two simulated machines of one rank each. The ranks meet at barriers, so a
  * query waits for its slowest rank: with a rank on every vCPU of a 4-vCPU
  * host, one busy neighbour thread slowed `join-dense` by 27 %; with two
  * ranks, by 4 %.
  */
object Cluster {
  val Machines = 2
  val RanksPerMachine = 1
  val Ranks: Int = Machines * RanksPerMachine
  /** The repo's simulated network: 3 GB/s across machines, 1.5 µs per message. */
  val Net: NetConfig = NetConfig(ranksPerMachine = RanksPerMachine,
    crossBytesPerSec = 3_000_000_000L, msgLatencyNanos = 1_500)
  def cfg(compress: Boolean): DistConfig =
    DistConfig(nRanks = Ranks, net = Net, netBits = 5, localBits = 4, compress = compress)
}

/** Drains a plan into a reusable row buffer so the timed region allocates
  * nothing of the harness's own; rows beyond the buffer are only counted.
  */
final class Sink(capacity: Int) {
  val rows = new Array[Array[Any]](capacity)
  var count = 0
  def drain(op: SubOp): Unit = {
    count = 0
    op.open()
    var t = op.next()
    while (t != null) {
      if (count < rows.length) rows(count) = t
      count += 1
      t = op.next()
    }
    op.close()
  }
  def stored: Int = math.min(count, rows.length)
  def clear(): Unit = java.util.Arrays.fill(rows.asInstanceOf[Array[AnyRef]], null)
}

/** Fig 6: dense 1:1 join of two ⟨long,long⟩ relations, the modular plan and
  * the monolith alternating on the same sharded inputs.
  */
final class JoinDense(seed: Long, n: Int) extends Workload {
  val name = "join-dense"
  private val cfg = Cluster.cfg(compress = true)
  private val rT = Gen.pairTypeNamed("rv")
  private val sT = Gen.pairTypeNamed("sv")
  private var rRows: Array[Array[Any]] = _
  private var sRows: Array[Array[Any]] = _
  private var r: Vector[RowVec] = _
  private var s: Vector[RowVec] = _
  private var expected = 0L
  private val sink = new Sink(n)

  def sizes = Seq("r_tuples" -> n.toLong, "s_tuples" -> n.toLong)
  def tuplesPerOp: Long = 2L * n
  def warmupOps = 10

  def prepare(): Unit = {
    rRows = Gen.densePairs(n, 1, seed = 2 * seed + 1)
    sRows = Gen.densePairs(n, 1, seed = 2 * seed + 2)
    r = Gen.shard(rRows, cfg.nRanks)
    s = Gen.shard(sRows, cfg.nRanks)
  }

  /** Keys are dense in [0, n) and 1:1, so the join pairs each key's rv and sv. */
  def oracle(wrong: Boolean): Unit = {
    val rv = new Array[Long](n); val sv = new Array[Long](n)
    rRows.foreach(t => rv(t(0).asInstanceOf[Long].toInt) = t(1).asInstanceOf[Long])
    sRows.foreach(t => sv(t(0).asInstanceOf[Long].toInt) = t(1).asInstanceOf[Long])
    var sum = 0L
    var k = 0
    while (k < n) { sum += Checksum.row(k.toLong, rv(k), sv(k)); k += 1 }
    expected = if (wrong) sum + 1 else sum
  }

  private def checksum(rows: Iterator[Array[Any]]): Long = {
    var sum = 0L
    rows.foreach(t => sum += Checksum.row(t(0).asInstanceOf[Long],
      t(1).asInstanceOf[Long], t(2).asInstanceOf[Long]))
    sum
  }

  def operate(rec: Recorder, tr: Tracer): Unit = {
    try {
      val (exec, sample) = Jvm.measure(collectBeforeQuery) {
        val (stream, exec) = tr.span("plan.build") {
          RadixJoinPlan.driver(r, s, rT, sT, JoinSpec(cfg))
        }
        tr.span("plan.execute") { sink.drain(stream) }
        exec
      }
      rec.query(sample, tr.enabled)
      rec.check("join-dense modular") {
        sink.count == n && checksum(sink.rows.iterator.take(sink.stored)) == expected
      }
      sink.clear()
      if (tr.enabled) Layers.recordQuery(rec, tr, exec, sample)
    } catch { case e: Exception => rec.fail("join-dense modular", e) }

    try {
      val (results, sample) = Jvm.measure(collectBeforeQuery) {
        tr.span("monolith.run") {
          MonolithicRadixJoin.run(r, s, cfg.nRanks, cfg.net, cfg.netBits, cfg.localBits)
        }
      }
      if (!tr.enabled) rec.monolith += sample
      rec.check("join-dense monolith") {
        MonolithicRadixJoin.totalRows(results) == n &&
          checksum(results.iterator.flatMap(_.rows)) == expected
      }
      if (tr.enabled) {
        Layers.recordMonolith(rec, results.map(_.timer))
        Layers.attachRanks(tr, "monolith.run", "monolith", results.map(_.timer))
      }
    } catch { case e: Exception => rec.fail("join-dense monolith", e) }
  }

  /** BuildProbe and LocalPartitioning over network partition 0 — the data
    * one iteration of the plan's first NestedMap sees — on one thread.
    */
  def kernels(tr: Tracer): Seq[(String, Double)] = {
    val mask = cfg.netFan - 1
    val rP = rRows.filter(t => (t(0).asInstanceOf[Long] & mask) == 0)
    val sP = sRows.filter(t => (t(0).asInstanceOf[Long] & mask) == 0)
    Seq(
      "core.LocalPartitioning.ns_per_tuple" -> Kernels.localPartitioning(tr, rP, rT, cfg),
      "core.BuildProbe.ns_per_tuple" -> Kernels.buildProbe(tr, rP, rT, sP, sT, cfg),
    )
  }
}

/** Fig 7: GROUP BY sum over ⟨long,long⟩ tuples, eight values per key. */
final class GroupByDup8(seed: Long, n: Int, dup: Int = 8) extends Workload {
  val name = "groupby-dup8"
  private val cfg = Cluster.cfg(compress = true)
  private val nKeys = n / dup
  private var rows: Array[Array[Any]] = _
  private var parts: Vector[RowVec] = _
  private var expGroups = 0L
  private var expTotal = 0L
  private var expChecksum = 0L
  private val sink = new Sink(nKeys)

  def sizes = Seq("tuples" -> n.toLong, "keys" -> nKeys.toLong)
  def tuplesPerOp: Long = n.toLong
  def warmupOps = 14

  def prepare(): Unit = {
    rows = Gen.densePairs(n, dup, seed = seed)
    parts = Gen.shard(rows, cfg.nRanks)
  }

  def oracle(wrong: Boolean): Unit = {
    val sums = new Array[Long](nKeys)
    val seen = new Array[Boolean](nKeys)
    rows.foreach { t =>
      val k = t(0).asInstanceOf[Long].toInt
      sums(k) += t(1).asInstanceOf[Long]; seen(k) = true
    }
    expGroups = seen.count(identity)
    expTotal = sums.sum
    expChecksum = sums.indices.filter(seen).map(k => Checksum.row(k.toLong, sums(k))).sum
    if (wrong) expTotal += 1
  }

  def operate(rec: Recorder, tr: Tracer): Unit =
    try {
      val (exec, sample) = Jvm.measure(collectBeforeQuery) {
        val (stream, exec) = tr.span("plan.build") {
          GroupByPlan.driver(parts, Gen.PairType, cfg)
        }
        tr.span("plan.execute") { sink.drain(stream) }
        exec
      }
      rec.query(sample, tr.enabled)
      rec.check("groupby-dup8") {
        val got = sink.rows.iterator.take(sink.stored)
        var total = 0L; var sum = 0L
        got.foreach { t =>
          val v = t(1).asInstanceOf[Long]
          total += v; sum += Checksum.row(t(0).asInstanceOf[Long], v)
        }
        sink.count == expGroups && total == expTotal && sum == expChecksum
      }
      sink.clear()
      if (tr.enabled) Layers.recordQuery(rec, tr, exec, sample)
    } catch { case e: Exception => rec.fail("groupby-dup8", e) }

  /** LocalPartitioning and ReduceByKey over network partition 0. */
  def kernels(tr: Tracer): Seq[(String, Double)] = {
    val mask = cfg.netFan - 1
    val p = rows.filter(t => (t(0).asInstanceOf[Long] & mask) == 0)
    Seq(
      "core.LocalPartitioning.ns_per_tuple" -> Kernels.localPartitioning(tr, p, Gen.PairType, cfg),
      "core.ReduceByKey.ns_per_tuple" -> Kernels.reduceByKey(tr, p, cfg),
    )
  }
}
