package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.SynthData

/** TPC-H-lite extension for the paper's Query 4, 12, 14, 19 (§4.4).
  *
  * Extends the provided [[SynthData]] generators with the columns those
  * queries touch but the base schema lacks: `l_shipmode`, `l_commitdate`,
  * `l_receiptdate`, `l_shipinstruct` on lineitem; `o_orderpriority` on
  * orders; `p_brand`, `p_container` on part. All extra columns are
  * deterministic in (sf, seed) like the base generators (DESIGN.md dataset
  * substitution: synthetic SF 0.01–0.1 instead of the paper's SF-500).
  */
object TpchLite {

  val ShipModes: Seq[String] =
    Seq("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
  val OrderPriorities: Seq[String] =
    Seq("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
  val ShipInstructs: Seq[String] =
    Seq("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")
  val Brands: Seq[String] =
    Seq("Brand#12", "Brand#23", "Brand#34", "Brand#45", "Brand#51")
  val Containers: Seq[String] =
    Seq("SM CASE", "SM BOX", "SM PACK", "SM PKG",
        "MED BAG", "MED BOX", "MED PKG", "MED PACK",
        "LG CASE", "LG BOX", "LG PACK", "LG PKG")

  private def pick(choices: Seq[String], seed: Long) =
    element_at(
      array(choices.map(lit): _*),
      (rand(seed) * choices.size + 1).cast(IntegerType))

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame =
    SynthData.lineitem(spark, sf, seed)
      .withColumn("l_shipmode", pick(ShipModes, seed + 10))
      .withColumn("l_shipinstruct", pick(ShipInstructs, seed + 11))
      // commit ~30–120 days after ship; receipt ~1–60 days after ship —
      // so l_commitdate < l_receiptdate holds for a realistic subset.
      .withColumn("l_commitdate",
        expr("date_add(l_shipdate, cast(rand(42) * 90 + 30 as int))"))
      .withColumn("l_receiptdate",
        expr("date_add(l_shipdate, cast(rand(43) * 120 + 1 as int))"))

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame =
    SynthData.orders(spark, sf, seed)
      .withColumn("o_orderpriority", pick(OrderPriorities, seed + 10))

  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 5): DataFrame =
    SynthData.part(spark, sf, seed)
      .withColumn("p_brand", pick(Brands, seed + 10))
      .withColumn("p_container", pick(Containers, seed + 11))

  /** The three tables the queries read, cached (the generators are lazy
    * Spark plans whose values would otherwise be regenerated — and with
    * `rand` seeds, possibly re-partitioned — between the oracle load and the
    * query run).
    */
  def tables(spark: SparkSession, sf: Double): Map[String, DataFrame] = {
    val t = Map(
      "lineitem" -> lineitem(spark, sf),
      "orders"   -> orders(spark, sf),
      "part"     -> part(spark, sf),
    )
    t.foreach { case (_, df) => df.cache().count() }
    t
  }
}
