package perfbench

import java.io.{BufferedWriter, File, FileWriter}
import java.sql.Connection

import org.apache.spark.sql.SparkSession

import repro.bench.{TpchBench, VolcanoTpch}
import repro.baselines.VolcanoCsvEngine
import repro.core._
import repro.data.TpchLite
import repro.plans.{RadixJoinPlan, TpchPlans, Workloads => Gen}
import repro.plans.RadixJoinPlan.JoinSpec
import repro.plans.TpchPlans.TpchData

/** Fig 9: one operation is a pass of TPC-H Q4, Q12, Q14 and Q19 over
  * TpchLite tables held in memory, uncompressed exchange. Spark only
  * generates the tables during set-up; DuckDB, loaded once from CSV copies
  * of the same tables, gives the expected answers.
  */
final class TpchPower(seed: Long, sf: Double, sparkCores: Int) extends Workload {
  val name = "tpch-power"
  private val cfg = Cluster.cfg(compress = false)
  private var spark: SparkSession = _
  private var data: TpchData = _
  private var expected: Map[String, Seq[Seq[Any]]] = Map.empty

  // Per-table generator seeds, spaced so no two rand() columns share one.
  private val base = seed * 100
  private val scratch = new File(System.getProperty("java.io.tmpdir"))

  def sizes = Seq("lineitem" -> data.lineitem.length.toLong,
    "orders" -> data.orders.length.toLong, "part" -> data.part.length.toLong)
  /** Q4 and Q12 scan lineitem and orders, Q14 and Q19 lineitem and part. */
  def tuplesPerOp: Long = 4L * data.lineitem.length + 2L * data.orders.length + 2L * data.part.length

  override def open(): Unit = {
    spark = SparkSession.builder
      .master(s"local[$sparkCores]")
      .appName("perfbench-tpch")
      // fixed parallelism: rand() columns depend on the partitioning, so the
      // generated tables must not depend on the machine's core count
      .config("spark.default.parallelism", "4")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(scratch, "spark").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(scratch, "warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
  }

  /** One Spark generation and collect takes ~9 s, so it runs once. */
  override def prepareReps: Int = 1
  def warmupOps = 30
  /** A pass allocates ~180 MB, a third of the young generation: collecting
    * before each one would cost more than the pass and add nothing.
    */
  override def collectBeforeQuery: Boolean = false

  def prepare(): Unit =
    data = TpchData.fromTables(Map(
      "lineitem" -> TpchLite.lineitem(spark, sf, base),
      "orders" -> TpchLite.orders(spark, sf, base + 20),
      "part" -> TpchLite.part(spark, sf, base + 40)))

  /** DuckDB reads CSV copies of exactly the tuples the plans receive. */
  def oracle(wrong: Boolean): Unit = {
    // Spark's work ends here: its threads must not run beside the ranks.
    spark.stop()
    val dir = new File(scratch, s"tpch-csv-$seed")
    dir.mkdirs()
    val csv = VolcanoTpch.Tables(
      li = writeCsv(dir, "lineitem", TpchPlans.LiT, data.lineitem),
      ord = writeCsv(dir, "orders", TpchPlans.OrdT, data.orders),
      part = writeCsv(dir, "part", TpchPlans.PartT, data.part))
    val duck = TpchBench.duckLoad(csv)
    try {
      expected = TpchPlans.All.map { case (q, _, sql) => q -> duckRows(duck, sql) }.toMap
    } finally duck.close()
    Seq(csv.li, csv.ord, csv.part).foreach(_._1.delete()); dir.delete()
    if (wrong) expected = expected.updated("Q12", expected("Q12").drop(1))
  }

  private def writeCsv(dir: File, name: String, t: TupleType,
                       rows: Array[Array[Any]]): (File, VolcanoCsvEngine.Schema) = {
    val f = new File(dir, s"$name.csv")
    val w = new BufferedWriter(new FileWriter(f))
    try rows.foreach { r =>
      w.write(r.map(v => if (v == null) "" else v.toString).mkString("|")); w.newLine()
    } finally w.close()
    (f, VolcanoCsvEngine.Schema(t.fields.map {
      case (n, Atom.LongA | Atom.IntA) => n -> "long"
      case (n, Atom.DoubleA) => n -> "double"
      case (n, _) => n -> "string"
    }))
  }

  private def duckRows(c: Connection, sql: String): Seq[Seq[Any]] = {
    val rs = c.createStatement.executeQuery(sql)
    val n = rs.getMetaData.getColumnCount
    val out = Iterator.continually(rs).takeWhile(_.next())
      .map(r => (1 to n).map(i => Canon.value(r.getObject(i)))).toVector
    rs.close()
    out
  }

  def operate(rec: Recorder, tr: Tracer): Unit = {
    var runs = Vector.empty[(String, TpchPlans.QueryRun)]
    val (_, sample) = Jvm.measure(collectBeforeQuery) {
      TpchPlans.All.foreach { case (q, plan, _) =>
        try runs :+= q -> tr.span(s"plans.${q.toLowerCase}") { plan(data, cfg) }
        catch { case e: Exception => rec.fail(q, e) }
      }
    }
    rec.query(sample, tr.enabled)
    runs.foreach { case (q, run) =>
      rec.check(q)(Canon.same(run.rows.map(_.toSeq.map(Canon.value)), expected(q)))
    }
    if (tr.enabled && runs.size == TpchPlans.All.size) {
      val ranks = runs.map { case (q, run) =>
        val rk = Layers.ofContexts(run.exec.lastRuntime.lastContexts)
        Layers.attachRanks(tr, s"plans.${q.toLowerCase}", "mpi", rk.timers)
        Layers.spanMs(tr, s"plans.${q.toLowerCase}").foreach(rec.layer(s"plans.${q.toLowerCase}_ms", _))
        rk
      }
      Layers.recordMpi(rec, ranks)
      Layers.recordGc(rec, sample)
      rec.layer("plans.build_ms", buildMs(tr))
    }
  }

  /** `TpchPlans.qN` builds and drains in one call, so plan construction is
    * timed by a probe: one `RadixJoinPlan.driver(...)` call per query over the
    * same shards, tuple types and configuration, left unexecuted. The probe's
    * scans only rename each join key to `k`.
    */
  private def buildMs(tr: Tracer): Double = {
    val li = Gen.shard(data.lineitem, cfg.nRanks)
    val ord = Gen.shard(data.orders, cfg.nRanks)
    val part = Gen.shard(data.part, cfg.nRanks)
    val pairs = Seq((ord, li, TpchPlans.OrdT, TpchPlans.LiT), (li, ord, TpchPlans.LiT, TpchPlans.OrdT),
      (part, li, TpchPlans.PartT, TpchPlans.LiT), (part, li, TpchPlans.PartT, TpchPlans.LiT))
    val keyed: SubOp => SubOp = up => new Rename(up, "k" +: up.outType.fieldNames.tail)
    val spec = JoinSpec(cfg, preR = keyed, preS = keyed)
    val t0 = System.nanoTime()
    tr.span("plan.build") {
      pairs.foreach { case (r, s, rT, sT) => RadixJoinPlan.driver(r, s, rT, sT, spec) }
    }
    (System.nanoTime() - t0) / 1e6
  }

  /** Q12's lineitem scan pipeline over rank 0's share of lineitem. */
  def kernels(tr: Tracer): Seq[(String, Double)] = {
    val share = Gen.shard(data.lineitem, cfg.nRanks).head.toArray
    val keyT = TupleType.of("k" -> Atom.LongA, "mode" -> Atom.StringA, "receipt" -> Atom.StringA)
    val pred: Array[Any] => Boolean = { t =>
      val mode = t(6).asInstanceOf[String]
      val ship = t(5).asInstanceOf[String]
      val commit = t(8).asInstanceOf[String]
      val receipt = t(9).asInstanceOf[String]
      (mode == "MAIL" || mode == "SHIP") && commit < receipt && ship < commit &&
        receipt >= "1994-01-01" && receipt < "1995-01-01"
    }
    Seq("core.pipeline.ns_per_tuple" -> Kernels.pipeline(tr, share, TpchPlans.LiT, pred,
      t => Array[Any](t(0), t(6), t(9)), keyT, Seq("k", "mode")))
  }

  override def close(): Unit = if (spark != null) spark.stop()
}

/** Canonical form of result rows: integral numbers as Long, fractional as
  * Double, rows sorted; doubles compare with a relative tolerance because
  * the plans and DuckDB sum in different orders.
  */
object Canon {
  val RelTol = 1e-9

  def value(x: Any): Any = x match {
    case null => null
    case l: java.lang.Long => l.longValue
    case b: java.math.BigInteger => b.longValueExact
    case d: java.lang.Double => d.doubleValue
    case d: java.math.BigDecimal => d.doubleValue
    case other => other.toString
  }

  private def key(row: Seq[Any]): String = row.map {
    case d: Double => f"$d%.3e"
    case x => String.valueOf(x)
  }.mkString("|")

  private def close(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) => math.abs(x - y) <= RelTol * math.max(math.abs(x), math.abs(y))
    case _ => a == b
  }

  def same(got: Seq[Seq[Any]], exp: Seq[Seq[Any]]): Boolean =
    got.size == exp.size && got.sortBy(key).zip(exp.sortBy(key)).forall { case (g, e) =>
      g.size == e.size && g.zip(e).forall { case (a, b) => close(a, b) }
    }
}
