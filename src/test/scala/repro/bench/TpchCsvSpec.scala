package repro.bench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.baselines.VolcanoCsvEngine.Schema

/** The Fig 9 CSV read path over hand-written `|`-separated files: fields are
  * found by column name, parsed by the atom of their layout field, and a
  * malformed field fails the load.
  */
class TpchCsvSpec extends AnyFunSuite {

  private val liCols = Vector(
    "l_orderkey" -> "long", "l_partkey" -> "long", "l_quantity" -> "double",
    "l_extendedprice" -> "double", "l_discount" -> "double", "l_shipdate" -> "string",
    "l_shipmode" -> "string", "l_shipinstruct" -> "string", "l_commitdate" -> "string",
    "l_receiptdate" -> "string")
  private def liLine(key: String) =
    s"$key|3|17.0|21168.23|0.04|1996-03-13|TRUCK|DELIVER IN PERSON|1996-02-12|1996-03-22"

  /** Orders and part list their columns in another order than the tuple
    * layouts, with extra columns the layouts do not carry.
    */
  private def tables(liLines: Seq[String]): VolcanoTpch.Tables = {
    val dir = Files.createTempDirectory("tpch-csv").toFile
    def table(name: String, cols: Vector[(String, String)], lines: Seq[String]) = {
      val f = new File(dir, s"$name.csv")
      Files.write(f.toPath, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
      (f, Schema(cols))
    }
    VolcanoTpch.Tables(
      li = table("lineitem", liCols, liLines),
      ord = table("orders",
        Vector("o_custkey" -> "long", "o_orderkey" -> "long",
          "o_orderdate" -> "string", "o_orderpriority" -> "string"),
        Seq("7|1|1994-02-03|1-URGENT", "8|2|1995-06-30|5-LOW")),
      part = table("part",
        Vector("p_partkey" -> "long", "p_retailprice" -> "double", "p_type" -> "string",
          "p_size" -> "long", "p_brand" -> "string", "p_container" -> "string"),
        Seq("3|901.5|PROMO|12|Brand#12|SM BOX")))
  }

  private def assertRows(got: Array[Array[Any]], exp: Seq[Seq[Any]]): Unit = {
    assert(got.map(_.toSeq).toSeq == exp)
    // `==` equates boxed numbers across classes: compare the classes too
    assert(got.map(_.toSeq.map(_.getClass)).toSeq == exp.map(_.map(_.getClass)))
  }

  test("load parses each field by its atom, finding columns by name") {
    val data = TpchCsv.load(tables(Seq(liLine("1"), liLine("2"))), threads = 2)
    assertRows(data.lineitem, Seq(1L, 2L).map(k => Seq[Any](k, 3L, 17.0, 21168.23, 0.04,
      "1996-03-13", "TRUCK", "DELIVER IN PERSON", "1996-02-12", "1996-03-22")))
    assertRows(data.orders,
      Seq(Seq[Any](1L, "1-URGENT", "1994-02-03"), Seq[Any](2L, "5-LOW", "1995-06-30")))
    assertRows(data.part, Seq(Seq[Any](3L, "PROMO", 12, "Brand#12", "SM BOX")))
  }

  test("a malformed long in any parser thread fails the load") {
    val lines = liLine("x1") +: (2 to 40).map(k => liLine(k.toString))
    intercept[NumberFormatException](TpchCsv.load(tables(lines), threads = 4))
  }
}
