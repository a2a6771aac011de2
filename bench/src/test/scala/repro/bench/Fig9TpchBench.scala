package repro.bench

import java.nio.file.Files

import repro.{Oracle, SparkSpec}
import repro.baselines.VolcanoCsvEngine
import repro.data.TpchLite
import repro.plans.TpchPlans
import BenchUtil._

/** Fig 9: TPC-H Q4/Q12/Q14/Q19 — Modularis vs a compiled in-memory SQL
  * engine ("MemSQL" = DuckDB over in-memory tables) and a generic
  * interpreted warehouse ("Presto" = the Volcano/CSV engine).
  * Paper shape: Modularis on par with (≤33 % slower than) MemSQL and
  * ~6–9× faster than Presto.
  */
class Fig9TpchBench extends SparkSpec {
  private val sf = envDouble("REPRO_TPCH_SF", 0.1)

  test("Fig 9 — TPC-H runtimes across the three engines") {
    println(TpchBench.run(spark, sf))
  }

  test("shape: the interpreted CSV engine is slower than Modularis read+exec") {
    val csv = VolcanoTpch.Tables.write(
      TpchLite.tables(spark, 0.05), Files.createTempDirectory("tpch-shape").toFile)
    val cfg = cluster(4, compress = false)
    val modMs = best(3) {
      timeMs(TpchPlans.q4(TpchCsv.load(csv, 8, Set("lineitem", "orders")), cfg))._2
    }(identity)
    val volMs = best(3)(timeMs(VolcanoCsvEngine.run(VolcanoTpch.q4(csv)))._2)(identity)
    assert(volMs > modMs,
      s"interpreted engine ($volMs ms) should be slower than Modularis read+exec ($modMs ms)")
  }

  test("correctness: parallel CSV load equals the Spark-collected tables") {
    val tables = TpchLite.tables(spark, 0.002)
    val csv = VolcanoTpch.Tables.write(tables, Files.createTempDirectory("tpch-roundtrip").toFile)
    val fromCsv = TpchCsv.load(csv, 4)
    val fromDf  = TpchPlans.TpchData.fromTables(tables)
    def canon(a: Array[Array[Any]]) = a.map(_.mkString("|")).sorted.toSeq
    assert(canon(fromCsv.lineitem) == canon(fromDf.lineitem))
    assert(canon(fromCsv.orders) == canon(fromDf.orders))
    assert(canon(fromCsv.part) == canon(fromDf.part))
  }

  test("correctness: the Spark column's SQL answers match DuckDB") {
    val tables = TpchLite.tables(spark, 0.005)
    tables.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val scanned = Seq("lineitem", "orders", "part").map(n => n -> tables(n))
    TpchPlans.All.foreach { case (_, _, sql) =>
      Oracle.assertEquivalent(spark.sql(sql), sql, scanned: _*)
    }
  }
}
