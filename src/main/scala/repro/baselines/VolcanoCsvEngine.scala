package repro.baselines

import java.io.{BufferedWriter, File, FileWriter}
import scala.collection.mutable
import scala.io.Source

/** Presto stand-in (DESIGN.md substitution table): a *generic* SQL-style
  * engine in the style the paper benchmarks against — row-at-a-time Volcano
  * iteration, a boxed expression-tree interpreter (no compilation, no
  * type-specialized loops), and a storage layer it must re-scan per query
  * (CSV on local disk, standing in for Presto's HDFS scans). The point is
  * not to be artificially slow: it is a faithful miniature of an interpreted
  * warehouse engine, and the ~order-of-magnitude gap to Modularis (Fig 9)
  * comes from exactly the sources the paper names — storage scan and
  * interpretation overhead versus in-memory compiled execution.
  */
object VolcanoCsvEngine {

  // --------------------------------------------------------------- values

  /** Row values: String | java.lang.Long | java.lang.Double | null. */
  type Row = Array[Any]

  final case class Schema(cols: Vector[(String, String)]) { // name -> {long,double,string}
    def idx(name: String): Int = {
      val i = cols.indexWhere(_._1 == name)
      require(i >= 0, s"no column $name in ${cols.map(_._1)}")
      i
    }
    def ++(o: Schema): Schema = Schema(cols ++ o.cols)
  }

  // ----------------------------------------------------------- expressions

  /** Interpreted expression AST — evaluated per row with boxed values and
    * virtual dispatch (the generality/abstraction cost the paper measures).
    */
  sealed trait Expr { def eval(r: Row): Any }
  final case class Col(i: Int) extends Expr { def eval(r: Row): Any = r(i) }
  final case class Lit(v: Any) extends Expr { def eval(r: Row): Any = v }
  final case class Cmp(op: String, a: Expr, b: Expr) extends Expr {
    def eval(r: Row): Any = {
      val x = a.eval(r); val y = b.eval(r)
      if (x == null || y == null) return null
      val c = (x, y) match {
        case (x: java.lang.Long, y: java.lang.Long)     => x.compareTo(y)
        case (x: java.lang.Double, y: java.lang.Double) => x.compareTo(y)
        case (x: String, y: String)                     => x.compareTo(y)
        case (x: java.lang.Long, y: java.lang.Double)   => x.doubleValue.compare(y)
        case (x: java.lang.Double, y: java.lang.Long)   => x.doubleValue.compare(y.doubleValue)
        case _ => throw new IllegalArgumentException(s"incomparable $x $y")
      }
      op match {
        case "="  => java.lang.Boolean.valueOf(c == 0)
        case "<"  => java.lang.Boolean.valueOf(c < 0)
        case "<=" => java.lang.Boolean.valueOf(c <= 0)
        case ">"  => java.lang.Boolean.valueOf(c > 0)
        case ">=" => java.lang.Boolean.valueOf(c >= 0)
        case o    => throw new IllegalArgumentException(s"bad cmp $o")
      }
    }
  }
  final case class In(e: Expr, set: Set[Any]) extends Expr {
    def eval(r: Row): Any = {
      val v = e.eval(r)
      if (v == null) null else java.lang.Boolean.valueOf(set(v))
    }
  }
  final case class StartsWith(e: Expr, prefix: String) extends Expr {
    def eval(r: Row): Any = {
      val v = e.eval(r)
      if (v == null) null else java.lang.Boolean.valueOf(v.asInstanceOf[String].startsWith(prefix))
    }
  }
  final case class And(es: Seq[Expr]) extends Expr {
    def eval(r: Row): Any = java.lang.Boolean.valueOf(es.forall(_.eval(r) == java.lang.Boolean.TRUE))
  }
  final case class Or(es: Seq[Expr]) extends Expr {
    def eval(r: Row): Any = java.lang.Boolean.valueOf(es.exists(_.eval(r) == java.lang.Boolean.TRUE))
  }
  final case class Arith(op: String, a: Expr, b: Expr) extends Expr {
    def eval(r: Row): Any = {
      val x = a.eval(r); val y = b.eval(r)
      if (x == null || y == null) return null
      def d(v: Any): Double = v match {
        case l: java.lang.Long   => l.doubleValue
        case d: java.lang.Double => d.doubleValue
      }
      op match {
        case "+" => java.lang.Double.valueOf(d(x) + d(y))
        case "-" => java.lang.Double.valueOf(d(x) - d(y))
        case "*" => java.lang.Double.valueOf(d(x) * d(y))
        case "/" => java.lang.Double.valueOf(d(x) / d(y))
        case o   => throw new IllegalArgumentException(s"bad arith $o")
      }
    }
  }
  final case class Case(cond: Expr, thenE: Expr, elseE: Expr) extends Expr {
    def eval(r: Row): Any =
      if (cond.eval(r) == java.lang.Boolean.TRUE) thenE.eval(r) else elseE.eval(r)
  }

  // ------------------------------------------------------------- operators

  /** Volcano operators over row iterators (one virtual call per row). */
  sealed trait Op { def schema: Schema; def iterator: Iterator[Row] }

  final case class CsvScan(file: File, schema: Schema) extends Op {
    def iterator: Iterator[Row] = {
      val types = schema.cols.map(_._2)
      val src = Source.fromFile(file)
      // `++` evaluates its operand only once the lines run out: close there.
      (src.getLines() ++ { src.close(); Iterator.empty }).map { line =>
        val parts = line.split('|')
        val row = new Array[Any](types.size)
        var i = 0
        while (i < types.size) {
          val s = parts(i)
          row(i) =
            if (s.isEmpty) null
            else types(i) match {
              case "long"   => java.lang.Long.valueOf(s)
              case "double" => java.lang.Double.valueOf(s)
              case _        => s
            }
          i += 1
        }
        row
      }
    }
  }

  final case class Filter(child: Op, pred: Expr) extends Op {
    def schema: Schema = child.schema
    def iterator: Iterator[Row] = child.iterator.filter(pred.eval(_) == java.lang.Boolean.TRUE)
  }

  /** In-memory hash join (inner or left-semi on the probe side). */
  final case class HashJoin(build: Op, probe: Op, buildKey: Int, probeKey: Int, semi: Boolean)
      extends Op {
    def schema: Schema = if (semi) probe.schema else probe.schema ++ build.schema
    def iterator: Iterator[Row] = {
      val table = mutable.HashMap.empty[Any, mutable.ArrayBuffer[Row]]
      build.iterator.foreach { r =>
        val k = r(buildKey)
        if (k != null) table.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += r
      }
      probe.iterator.flatMap { pr =>
        val k = pr(probeKey)
        val hit = if (k == null) None else table.get(k)
        if (semi) { if (hit.isDefined) Iterator.single(pr) else Iterator.empty }
        else hit match {
          case Some(bs) => bs.iterator.map(br => pr ++ br)
          case None     => Iterator.empty
        }
      }
    }
  }

  final case class HashAgg(child: Op, groupCols: Seq[Int], aggs: Seq[(String, Expr)]) extends Op {
    // agg kinds: "sum" (double), "count"
    def schema: Schema = Schema(
      (groupCols.map(i => child.schema.cols(i)) ++
        aggs.zipWithIndex.map { case ((kind, _), i) =>
          s"agg$i" -> (if (kind == "count") "long" else "double")
        }).toVector)
    def iterator: Iterator[Row] = {
      val groups = mutable.LinkedHashMap.empty[Vector[Any], Array[Double]]
      val counts = mutable.LinkedHashMap.empty[Vector[Any], Array[Long]]
      child.iterator.foreach { r =>
        val key = groupCols.map(r(_)).toVector
        val accD = groups.getOrElseUpdate(key, new Array[Double](aggs.size))
        val accL = counts.getOrElseUpdate(key, new Array[Long](aggs.size))
        var i = 0
        aggs.foreach { case (kind, e) =>
          kind match {
            case "count" => accL(i) += 1
            case "sum" =>
              val v = e.eval(r)
              if (v != null) accD(i) += (v match {
                case l: java.lang.Long   => l.doubleValue
                case d: java.lang.Double => d.doubleValue
              })
          }
          i += 1
        }
      }
      if (groups.isEmpty && groupCols.isEmpty) {
        // SQL: aggregates over empty input emit one row
        groups(Vector.empty) = new Array[Double](aggs.size)
        counts(Vector.empty) = new Array[Long](aggs.size)
      }
      groups.keysIterator.map { key =>
        val accD = groups(key); val accL = counts(key)
        (key ++ aggs.zipWithIndex.map { case ((kind, _), i) =>
          if (kind == "count") java.lang.Long.valueOf(accL(i))
          else java.lang.Double.valueOf(accD(i))
        }).toArray
      }
    }
  }

  /** Execute an operator tree to completion. */
  def run(op: Op): Vector[Row] = op.iterator.toVector

  // ----------------------------------------------------- storage bootstrap

  /** Write a Spark DataFrame to the engine's storage layer (pipe-separated
    * CSV, one file per table) — the analog of loading HDFS for Presto.
    */
  def writeTable(df: org.apache.spark.sql.DataFrame, dir: File, name: String): (File, Schema) = {
    dir.mkdirs()
    val file = new File(dir, s"$name.csv")
    val schema = Schema(df.schema.fields.map { f =>
      f.name -> (f.dataType.typeName match {
        case "long" | "integer" => "long"
        case "double"           => "double"
        case _                  => "string"
      })
    }.toVector)
    val w = new BufferedWriter(new FileWriter(file))
    try df.collect().foreach { r =>
      val line = (0 until r.size).map { i =>
        val v = r.get(i)
        if (v == null) "" else v.toString
      }.mkString("|")
      w.write(line); w.newLine()
    } finally w.close()
    (file, schema)
  }
}
