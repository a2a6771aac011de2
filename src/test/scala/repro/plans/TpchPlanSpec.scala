package repro.plans

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

import repro.{Oracle, SparkSpec}
import repro.data.TpchLite
import repro.mpi.NetConfig
import repro.plans.PlanPieces.DistConfig
import repro.plans.TpchPlans._

/** Every TPC-H sub-operator plan is oracle-checked against DuckDB running
  * the reference SQL over the *same* generated tables.
  */
class TpchPlanSpec extends SparkSpec {
  private val sf = 0.005
  private lazy val tables = TpchLite.tables(spark, sf)
  private lazy val data   = TpchData.fromTables(tables)

  private def cfg(nRanks: Int = 4) = DistConfig(
    nRanks = nRanks,
    net = NetConfig(ranksPerMachine = 2, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0),
    netBits = 3, localBits = 3, compress = false)

  private def toDf(run: QueryRun, schema: StructType): DataFrame =
    spark.createDataFrame(
      run.rows.map(r => Row.fromSeq(r.toSeq)).asJava, schema)

  private def oracleTables = Seq(
    "lineitem" -> tables("lineitem"),
    "orders"   -> tables("orders"),
    "part"     -> tables("part"))

  test("Q4 sub-operator plan matches DuckDB") {
    val run = q4(data, cfg())
    val df = toDf(run, StructType(Seq(
      StructField("o_orderpriority", StringType),
      StructField("order_count", LongType))))
    assert(run.rows.nonEmpty)
    Oracle.assertEquivalent(df, q4DuckSql, oracleTables: _*)
  }

  test("Q12 sub-operator plan matches DuckDB") {
    val run = q12(data, cfg())
    val df = toDf(run, StructType(Seq(
      StructField("l_shipmode", StringType),
      StructField("high_line_count", LongType),
      StructField("low_line_count", LongType))))
    assert(run.rows.nonEmpty)
    Oracle.assertEquivalent(df, q12DuckSql, oracleTables: _*)
  }

  test("Q14 sub-operator plan matches DuckDB") {
    val run = q14(data, cfg())
    val df = toDf(run, StructType(Seq(
      StructField("promo_revenue", DoubleType))))
    Oracle.assertEquivalent(df, q14DuckSql, oracleTables: _*)
  }

  test("Q19 sub-operator plan matches DuckDB") {
    val run = q19(data, cfg())
    val df = toDf(run, StructType(Seq(
      StructField("revenue", DoubleType))))
    Oracle.assertEquivalent(df, q19DuckSql, oracleTables: _*)
  }

  test("Q12 result is independent of the simulated cluster size") {
    val a = q12(data, cfg(2)).rows.map(_.toSeq)
    val b = q12(data, cfg(8)).rows.map(_.toSeq)
    assert(a == b)
  }

  test("Q4 runs the semi-join variant (probe side preserved)") {
    val run = q4(data, cfg())
    // counts must sum to the number of qualifying orders, not lineitems
    val total = run.rows.map(_(1).asInstanceOf[Long]).sum
    val direct = tables("orders").filter(
      "o_orderdate >= '1993-07-01' and o_orderdate < '1993-10-01'").count()
    assert(total <= direct)
  }

  test("per-rank network stats are recorded for TPC-H plans") {
    val run = q12(data, cfg())
    assert(run.exec.report.bytesPut > 0)
  }
}
