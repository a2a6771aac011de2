package repro.sparkext

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{
  Alias, Attribute, AttributeReference, BindReferences, Expression, Literal,
  NamedExpression, UnsafeProjection}
import org.apache.spark.sql.catalyst.expressions.aggregate.{
  AggregateExpression, Count, Sum}
import org.apache.spark.sql.catalyst.plans.physical.{
  AllTuples, ClusteredDistribution, Distribution}
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import org.apache.spark.sql.types._

import repro.core._

/** The Modularis distributed GROUP BY ported to Spark (Fig 5's plan on the
  * Catalyst platform): the shuffle exchange induced by
  * `ClusteredDistribution(grouping)` replaces MpiExchange, and inside each
  * task the core [[ReduceByKey]] sub-operator performs the aggregation —
  * the same operator that runs on the simulated RDMA cluster.
  *
  * Supported shape (checked by [[ModularisStrategy]]): grouping on
  * attributes; aggregates are non-distinct, unfiltered SUM/COUNT.
  */
case class ModularisAggExec(
    groupingExprs: Seq[Attribute],
    resultExprs: Seq[NamedExpression],
    child: SparkPlan,
) extends UnaryExecNode {

  override def output: Seq[Attribute] = resultExprs.map(_.toAttribute)

  override def requiredChildDistribution: Seq[Distribution] =
    if (groupingExprs.isEmpty) AllTuples :: Nil
    else ClusteredDistribution(groupingExprs) :: Nil

  override protected def withNewChildInternal(newChild: SparkPlan): SparkPlan =
    copy(child = newChild)

  /** The aggregate functions in result order (None = grouping column). */
  private lazy val plan: Seq[Either[Int, AggregateExpression]] = resultExprs.map {
    case ar: AttributeReference =>
      Left(groupingExprs.indexWhere(_.exprId == ar.exprId))
    case Alias(ae: AggregateExpression, _) => Right(ae)
    case Alias(ar: AttributeReference, _) =>
      Left(groupingExprs.indexWhere(_.exprId == ar.exprId))
    case other =>
      throw new IllegalStateException(s"unsupported result expression $other")
  }

  override protected def doExecute(): RDD[InternalRow] = {
    val boundGroup = groupingExprs.map(BindReferences.bindReference(_: Expression, child.output))
    val aggs: Seq[AggregateExpression] = plan.collect { case Right(ae) => ae }
    val boundAggChildren: Seq[Option[Expression]] = aggs.map(_.aggregateFunction match {
      case Sum(e, _)                    => Some(BindReferences.bindReference(e, child.output))
      case Count(Seq(Literal(_, _)))    => None
      case Count(Seq(e))                => Some(BindReferences.bindReference(e, child.output))
      case f => throw new IllegalStateException(s"unsupported aggregate $f")
    })
    val aggKinds: Seq[(Boolean, DataType)] = aggs.map { ae =>
      (ae.aggregateFunction.isInstanceOf[Sum], ae.dataType)
    }
    val outTypes = output.map(_.dataType).toArray
    val resultPlan = plan
    val groupless = groupingExprs.isEmpty

    child.execute().mapPartitions { it =>
      // Tuple layout: ⟨g (composite key), a0..aM (accumulators)⟩ — ReduceByKey
      // (the unchanged core sub-operator) does the actual aggregation.
      val elemT = TupleType(
        ("g" -> (Atom("group"): ItemType)) +:
          aggs.indices.map(i => s"a$i" -> (Atom("acc"): ItemType)).toVector)

      def init(row: InternalRow): Array[Any] = {
        val t = new Array[Any](1 + aggs.size)
        t(0) =
          if (groupless) 0L
          else boundGroup.map(_.eval(row)).toVector
        var i = 0
        while (i < aggs.size) {
          val (isSum, dt) = aggKinds(i)
          t(i + 1) =
            if (isSum) boundAggChildren(i).map(_.eval(row)).orNull
            else boundAggChildren(i) match {
              case None    => 1L                                  // count(*)
              case Some(e) => if (e.eval(row) == null) 0L else 1L // count(x)
            }
          i += 1
        }
        t
      }

      def combine(a: Array[Any], b: Array[Any]): Array[Any] = {
        val out = new Array[Any](aggs.size)
        var i = 0
        while (i < aggs.size) {
          val (isSum, dt) = aggKinds(i)
          out(i) =
            if (!isSum) a(i).asInstanceOf[Long] + b(i).asInstanceOf[Long]
            else (a(i), b(i)) match {
              case (null, y) => y
              case (x, null) => x
              case (x, y) => dt match {
                case DoubleType => x.asInstanceOf[Double] + y.asInstanceOf[Double]
                case LongType =>
                  def l(v: Any): Long = v match {
                    case i: java.lang.Integer => i.longValue
                    case l: java.lang.Long    => l.longValue
                  }
                  l(x) + l(y)
                case other => throw new IllegalStateException(s"sum over $other")
              }
            }
          i += 1
        }
        out
      }

      val copied = it.map(r => init(r.copy()))
      val src = new IterSource(() => copied, elemT)
      val rbk = new ReduceByKey(src, "g", combine)
      val toUnsafe = UnsafeProjection.create(outTypes)

      def emit(t: Array[Any]): InternalRow = {
        val groupVals = if (groupless) Vector.empty else t(0).asInstanceOf[Vector[Any]]
        val vals = new Array[Any](resultPlan.size)
        var ai = 0
        var i = 0
        resultPlan.foreach {
          case Left(g) => vals(i) = groupVals(g); i += 1
          case Right(_) =>
            // widen int sums to the declared result type
            val (isSum, dt) = aggKinds(ai)
            val v = t(1 + ai)
            vals(i) = (v, dt) match {
              case (x: java.lang.Integer, LongType) => x.longValue
              case _                                => v
            }
            ai += 1; i += 1
        }
        toUnsafe(new org.apache.spark.sql.catalyst.expressions.GenericInternalRow(vals))
      }

      val grouped = RowCodec.iterate(rbk).map(emit)
      if (groupless) {
        // SQL semantics: aggregates over an empty input produce one row.
        val buffered = grouped.toVector
        if (buffered.nonEmpty) buffered.iterator
        else {
          val vals: Array[Any] = aggKinds.map {
            case (true, _)  => null // empty SUM is NULL
            case (false, _) => 0L   // empty COUNT is 0
          }.toArray
          Iterator.single(toUnsafe(
            new org.apache.spark.sql.catalyst.expressions.GenericInternalRow(vals)))
        }
      } else grouped
    }
  }
}
